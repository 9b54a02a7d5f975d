package orb

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRefFromSpec(t *testing.T) {
	want := ObjectRef{TypeID: "IDL:repro/Calc:1.0", Addr: "10.0.0.1:9999", Key: "calc"}
	sior := want.ToString()
	dir := t.TempDir()
	file := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return "@" + p
	}
	cases := []struct {
		name    string
		spec    string
		wantErr error // nil: the spec must parse to want
	}{
		{"bare SIOR", sior, nil},
		{"ref file", file("ref", sior+"\n"), nil},
		{"first line wins", file("lines", sior+"\nSIOR:zz\nnotes\n"), nil},
		{"missing file", "@" + filepath.Join(dir, "absent"), fs.ErrNotExist},
		{"empty file", file("empty", ""), ErrBadRef},
		{"garbage", "not-a-ref", ErrBadRef},
		{"garbage file", file("garbage", "hello\n"+sior+"\n"), ErrBadRef},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := RefFromSpec(c.spec)
			if c.wantErr == nil {
				if err != nil || got != want {
					t.Fatalf("RefFromSpec = %v, %v; want %v", got, err, want)
				}
				return
			}
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("RefFromSpec error = %v, want %v", err, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.spec) {
				t.Fatalf("error %q does not name the spec %q", err, c.spec)
			}
		})
	}
}
