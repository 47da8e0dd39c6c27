package analysis

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// sharedLoader typechecks the standard library once per test binary; fixture
// and stub packages are registered into the same loader under distinct
// import paths, so the tests stay fast and independent.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		wd, err := os.Getwd()
		if err != nil {
			loaderErr = err
			return
		}
		loader = NewLoader(filepath.Join(wd, "..", ".."))
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loader
}

func runFixtureTest(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	res, err := RunFixture(fixtureLoader(t), a, filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatalf("fixture %s: %v", fixture, err)
	}
	for _, d := range res.Unexpected {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, m := range res.Missing {
		t.Errorf("missing diagnostic: %s", m)
	}
}

func TestPoolLeak(t *testing.T)     { runFixtureTest(t, PoolLeak, "poolleak") }
func TestMsgLog(t *testing.T)       { runFixtureTest(t, MsgLog, "msglog") }
func TestEpochStamp(t *testing.T)   { runFixtureTest(t, EpochStamp, "epochstamp") }
func TestTransientErr(t *testing.T) { runFixtureTest(t, TransientErr, "transienterr") }
func TestTraceNil(t *testing.T)     { runFixtureTest(t, TraceNil, "tracenil") }

func TestLockOrder(t *testing.T) { runFixtureTest(t, LockOrder, "lockorder") }

func TestCtxEscape(t *testing.T)       { runFixtureTest(t, CtxEscape, "ctxescape") }
func TestMapIter(t *testing.T)         { runFixtureTest(t, MapIter, "mapiter") }
func TestBlockingCompute(t *testing.T) { runFixtureTest(t, BlockingCompute, "blockingcompute") }
func TestGoroLeak(t *testing.T)        { runFixtureTest(t, GoroLeak, "goroleak") }

// TestMapIterEngineSendPath exercises the engine scope: the fixture loads as
// "fixture/core", so its send-path methods are fenced too.
func TestMapIterEngineSendPath(t *testing.T) { runFixtureTest(t, MapIter, "core") }

func TestNonDeterminism(t *testing.T) {
	runFixtureTest(t, NonDeterminism, "nondeterminism")
}

// TestNonDeterminismAlgorithmsPackage exercises the package-suffix rule: the
// fixture loads as "fixture/algorithms", so free functions are fenced too.
func TestNonDeterminismAlgorithmsPackage(t *testing.T) {
	runFixtureTest(t, NonDeterminism, "algorithms")
}

func TestByName(t *testing.T) {
	as, err := ByName("poolleak,lockorder")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0] != PoolLeak || as[1] != LockOrder {
		t.Fatalf("ByName returned %v", as)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}
