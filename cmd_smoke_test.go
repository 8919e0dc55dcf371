package freemeasure_test

// Smoke tests for the command-line tools: flag validation exits with the
// conventional status 2 and a usage hint, daemons boot their operator
// surface, and SIGTERM produces a clean (status 0) shutdown. These are
// deliberately shallow — the deep paths live in cmd_integration_test.go —
// but they catch the embarrassing failures: a binary that panics on
// startup, ignores SIGTERM, or silently accepts a misspelled flag.

import (
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// runExpectError runs a binary expecting a non-zero exit, returning the
// exit code and combined output.
func runExpectError(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildTools(t), bin), args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v succeeded, want non-zero exit\n%s", bin, args, out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%s %v: %v (did the binary start at all?)", bin, args, err)
	}
	return ee.ExitCode(), string(out)
}

// TestSmokeFlagValidation: every tool rejects bad invocations with exit
// status 2 and says why on stderr.
func TestSmokeFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	cases := []struct {
		name string
		bin  string
		args []string
		want string // substring of the diagnostic
	}{
		{"vnetd missing -name", "vnetd", nil, "-name is required"},
		{"vnetd unknown flag", "vnetd", []string{"-name", "x", "-no-such-flag"}, "flag provided but not defined"},
		{"vnetd est-fusion without controller", "vnetd", []string{"-name", "x", "-est-fusion", "5s"}, "-est-fusion requires -controller"},
		{"wrenrepod unknown flag", "wrenrepod", []string{"-bogus"}, "flag provided but not defined"},
		{"vadaptctl unknown flag", "vadaptctl", []string{"-no-such-flag", "spec.json"}, "flag provided but not defined"},
		{"wrentrace no arguments", "wrentrace", nil, "usage: wrentrace"},
		{"wrenctl unknown flag", "wrenctl", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"estbench unknown flag", "estbench", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"estbench unknown scenario", "estbench", []string{"-scenario", "no-such-scenario"}, "unknown scenario"},
		{"estbench unknown estimator", "estbench", []string{"-estimators", "no-such-estimator"}, "unknown estimator"},
		{"estbench stray arguments", "estbench", []string{"stray"}, "unexpected arguments"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := runExpectError(t, tc.bin, tc.args...)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2\n%s", code, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("diagnostic missing %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestSmokeHelpExitsZero: -h prints usage and exits 0, so operators can
// always ask a binary what it does.
func TestSmokeHelpExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	for _, bin := range []string{"estbench", "vnetd", "wrenrepod"} {
		t.Run(bin, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(buildTools(t), bin), "-h")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s -h exited non-zero: %v\n%s", bin, err, out)
			}
			if !strings.Contains(string(out), "Usage") && !strings.Contains(string(out), "usage") {
				t.Fatalf("%s -h printed no usage text:\n%s", bin, out)
			}
		})
	}
}

// startForSignal launches a daemon binary without the kill-on-cleanup
// wrapper so the test can observe its exit status after a signal.
func startForSignal(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildTools(t), bin), args...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

// waitExit waits for the process to exit and returns its status code.
func waitExit(t *testing.T, cmd *exec.Cmd) int {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
		return cmd.ProcessState.ExitCode()
	case <-time.After(10 * time.Second):
		t.Fatal("process did not exit after SIGTERM")
		return -1
	}
}

// TestSmokeVnetdSIGTERM: a vnetd with the full operator surface boots,
// serves /healthz, and exits 0 on SIGTERM.
func TestSmokeVnetdSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	listen, metrics := freePort(t), freePort(t)
	cmd := startForSignal(t, "vnetd", "-name", "smoke", "-listen", listen, "-metrics-addr", metrics)
	waitTCP(t, listen)
	waitTCP(t, metrics)
	if got := strings.TrimSpace(httpGet(t, "http://"+metrics+"/healthz")); got != "ok" {
		t.Fatalf("healthz = %q, want ok", got)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := waitExit(t, cmd); code != 0 {
		t.Fatalf("vnetd exit code after SIGTERM = %d, want 0", code)
	}
}

// TestSmokeWrenrepodSIGTERM: wrenrepod boots both listeners plus the
// metrics surface and shuts down cleanly on SIGTERM.
func TestSmokeWrenrepodSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	ingest, httpAddr, metrics := freePort(t), freePort(t), freePort(t)
	cmd := startForSignal(t, "wrenrepod",
		"-listen", ingest, "-http", httpAddr, "-metrics-addr", metrics)
	waitTCP(t, ingest)
	waitTCP(t, httpAddr)
	waitTCP(t, metrics)
	if body := httpGet(t, "http://"+metrics+"/metrics"); !strings.Contains(body, "wren_repo_origins") {
		t.Fatalf("metrics endpoint missing wren_repo_origins:\n%s", body)
	}
	// No origins yet: the listing is empty but the endpoint answers.
	if body := httpGet(t, "http://"+httpAddr+"/origins"); strings.TrimSpace(body) != "" {
		t.Fatalf("fresh repository lists origins: %q", body)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := waitExit(t, cmd); code != 0 {
		t.Fatalf("wrenrepod exit code after SIGTERM = %d, want 0", code)
	}
}

// TestSmokeVnetdForwarderMetrics: a vnetd shipping its trace to a
// wrenrepod (-forward) with -metrics-addr serves the forwarder's series.
func TestSmokeVnetdForwarderMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	ingest, httpAddr := freePort(t), freePort(t)
	startTool(t, "wrenrepod", "-listen", ingest, "-http", httpAddr)
	waitTCP(t, ingest)
	listen, metrics := freePort(t), freePort(t)
	startTool(t, "vnetd", "-name", "smoke-fwd", "-listen", listen,
		"-forward", ingest, "-metrics-addr", metrics)
	waitTCP(t, metrics)
	body := httpGet(t, "http://"+metrics+"/metrics")
	for _, series := range []string{"wren_forwarder_reconnects_total", "wren_forwarder_lost_records_total"} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics endpoint missing %s", series)
		}
	}
}

// TestSmokeVnetdInterrupt: Interrupt (Ctrl-C) works the same as SIGTERM.
func TestSmokeVnetdInterrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	listen := freePort(t)
	cmd := startForSignal(t, "vnetd", "-name", "smoke-int", "-listen", listen)
	waitTCP(t, listen)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if code := waitExit(t, cmd); code != 0 {
		t.Fatalf("vnetd exit code after SIGINT = %d, want 0", code)
	}
}

// TestSmokeOverlayExample: examples/overlay — the whole closed loop on
// real sockets, through core.System's controller — runs to completion and
// actually moves the VM off the rate-limited host.
func TestSmokeOverlayExample(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	out, err := exec.Command("go", "run", "./examples/overlay").CombinedOutput()
	if err != nil {
		t.Fatalf("examples/overlay: %v\n%s", err, out)
	}
	var after string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "after adaptation:") {
			after = line
		}
	}
	if after == "" || strings.Contains(after, "slowhost") {
		t.Fatalf("want an \"after adaptation\" line naming a host other than slowhost, got %q in:\n%s", after, out)
	}
}
