package main

import "testing"

func TestCheckDistFlags(t *testing.T) {
	for _, c := range []struct {
		shards int
		hosts  string
		ok     bool
	}{
		{1, "", true},
		{4, "", true},
		{1, "a:1", true},
		{0, "a:1", true},
		{4, "a:1", false},
	} {
		if err := checkDistFlags(c.shards, c.hosts); (err == nil) != c.ok {
			t.Errorf("-shards %d -hosts %q: err = %v, want ok=%v", c.shards, c.hosts, err, c.ok)
		}
	}
}
