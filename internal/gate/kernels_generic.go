//go:build !amd64 || purego

package gate

// Portable fallback: no assembly batch kernels. Every run dispatches to
// the generated Go run kernels (kernels_generated.go). This serves every
// non-amd64 host, arm64 included, and every purego build.

const asmAvailable = false

func asmKernels(int) (*[numKinds]batchKernel, *[numKinds]compKernel) { return nil, nil }
