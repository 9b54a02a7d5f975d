package daemon

import (
	"bufio"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cdr"
	"repro/internal/obs"
	"repro/internal/orb"
)

type nopServant struct{}

func (nopServant) TypeID() string { return "IDL:repro/Nop:1.0" }
func (nopServant) Invoke(*orb.ServerContext, string, *cdr.Decoder, *cdr.Encoder) error {
	return nil
}

// parse declares the full shared flag set on a fresh FlagSet and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := ServiceFlags(fs, "testd", "127.0.0.1:0")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBadQoSClassesIsAnError(t *testing.T) {
	f := parse(t, "-qos-classes", "critical:lots")
	d, err := f.Start()
	if err == nil {
		d.Close()
		t.Fatal("Start accepted -qos-classes critical:lots")
	}
	if !strings.Contains(err.Error(), "-qos-classes") {
		t.Fatalf("error %q does not name the flag", err)
	}
}

func TestOptionsCarryQoSFlags(t *testing.T) {
	f := parse(t, "-qos-classes", "critical:9,batch:2", "-tenant-rate", "50", "-tenant-burst", "7")
	opts, err := f.options()
	if err != nil {
		t.Fatal(err)
	}
	want := orb.DefaultClassWeights
	want[orb.ClassCritical], want[orb.ClassBatch] = 9, 2
	if opts.Name != "testd" || opts.QoS.Weights != want ||
		opts.QoS.TenantRate != 50 || opts.QoS.TenantBurst != 7 {
		t.Fatalf("options = %+v, want name testd, weights %v, tenant rate 50 burst 7", opts, want)
	}
	// The defaults leave everything else to the ORB, as a bare
	// orb.Options{Name: …} would.
	opts, err = parse(t).options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.QoS != (orb.QoSOptions{Weights: orb.DefaultClassWeights}) || opts.WorkerPool != 0 {
		t.Fatalf("default options = %+v", opts)
	}
}

// TestAnnounceStdoutAndRefFile checks the contract other processes rely
// on: stdout's first line is the SIOR, the second the OBS: address, and
// -ref-file holds exactly the SIOR and a newline.
func TestAnnounceStdoutAndRefFile(t *testing.T) {
	refFile := filepath.Join(t.TempDir(), "d.ref")
	f := parse(t, "-ref-file", refFile, "-obs", "127.0.0.1:0", "-degrade-high", "0.9")
	d, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := d.Adapter.Activate("nop", nopServant{})

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	registered := false
	err = d.Announce(ref, func(*obs.Observer) { registered = true })
	os.Stdout = stdout
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(strings.NewReader(string(out)))
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 2 || lines[0] != ref.ToString() || !strings.HasPrefix(lines[1], "OBS:127.0.0.1:") {
		t.Fatalf("stdout = %q, want the SIOR then OBS:host:port", lines)
	}
	if !registered {
		t.Fatal("register callback not run")
	}
	raw, err := os.ReadFile(refFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != ref.ToString()+"\n" {
		t.Fatalf("ref file = %q, want the SIOR and a newline", raw)
	}
}

func TestListenFlagsDeclareOnlyAddrAndObs(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	ListenFlags(fs, "workerd", "127.0.0.1:0")
	var names []string
	fs.VisitAll(func(fl *flag.Flag) { names = append(names, fl.Name) })
	if strings.Join(names, ",") != "addr,obs" {
		t.Fatalf("ListenFlags declared %v, want addr and obs", names)
	}
}
