package main

import (
	"strings"
	"testing"
)

// TestModeFlagsCheck: each rejected worker/coordinator combination names
// the flag the user actually passed, and the supported modes pass.
func TestModeFlagsCheck(t *testing.T) {
	cases := []struct {
		name    string
		m       modeFlags
		wantErr string // "" = accepted
	}{
		{"worker without connect", modeFlags{worker: true, cache: true}, "-worker requires -connect"},
		{"worker without connect or cache", modeFlags{worker: true}, "-worker requires -connect"},
		{"distribute without cache", modeFlags{distribute: 2}, "-distribute requires the artifact cache"},
		{"serve without cache", modeFlags{serve: "127.0.0.1:0"}, "-serve requires the artifact cache"},
		{"serve and distribute without cache", modeFlags{serve: "127.0.0.1:0", distribute: 2}, "-serve requires the artifact cache"},

		{"in-process", modeFlags{cache: true}, ""},
		{"in-process without cache", modeFlags{}, ""},
		{"distribute", modeFlags{distribute: 2, cache: true}, ""},
		{"serve", modeFlags{serve: "127.0.0.1:0", cache: true}, ""},
		{"serve and distribute", modeFlags{serve: "127.0.0.1:0", distribute: 2, cache: true}, ""},
		{"worker", modeFlags{worker: true, connect: "127.0.0.1:7000", cache: true}, ""},
		{"worker without cache", modeFlags{worker: true, connect: "@addr"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.m.check()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("accepted, want %q", tc.wantErr)
			case tc.wantErr != "" && !strings.HasPrefix(err.Error(), tc.wantErr):
				t.Fatalf("error %q, want it to start with %q", err, tc.wantErr)
			}
		})
	}
}
