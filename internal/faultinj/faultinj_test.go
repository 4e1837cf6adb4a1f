package faultinj

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestNilInjectorIsInert: the production wiring passes nil; every method
// must be a safe no-op.
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.Hit(SiteJournalAppend, 0); err != nil {
		t.Fatalf("nil injector injected %v", err)
	}
	if in.Hits(SiteJournalAppend) != 0 || in.Fired() != nil {
		t.Fatal("nil injector kept state")
	}
}

// TestOnHitRule: a rule armed for the Nth hit fires exactly there, once.
func TestOnHitRule(t *testing.T) {
	in := New(Rule{Site: "x", OnHit: 3, Action: ActError, Msg: "boom"})
	for i := 1; i <= 5; i++ {
		err := in.Hit("x", 0)
		if (i == 3) != (err != nil) {
			t.Fatalf("hit %d: err = %v", i, err)
		}
		if i == 3 {
			var f *Fault
			if !errors.As(err, &f) || f.Site != "x" {
				t.Fatalf("hit 3: not a *Fault for site x: %v", err)
			}
		}
	}
	if got := in.Fired(); !reflect.DeepEqual(got, []string{"x#3:error"}) {
		t.Fatalf("fired log = %v", got)
	}
}

// TestAtValueRule: an @value rule fires on the first hit whose value
// reaches the threshold — the deterministic "crash at retirement N" knob.
func TestAtValueRule(t *testing.T) {
	in := New(Rule{Site: SiteWorkerPanic, AtValue: 1000, Action: ActError})
	if err := in.Hit(SiteWorkerPanic, 400); err != nil {
		t.Fatalf("below threshold fired: %v", err)
	}
	if err := in.Hit(SiteWorkerPanic, 999); err != nil {
		t.Fatalf("below threshold fired: %v", err)
	}
	if err := in.Hit(SiteWorkerPanic, 1000); err == nil {
		t.Fatal("threshold reached but nothing fired")
	}
	if err := in.Hit(SiteWorkerPanic, 2000); err != nil {
		t.Fatalf("one-shot rule fired twice: %v", err)
	}
}

// TestPanicAction: an ActPanic rule panics with a *Fault, which is what the
// batch layer's recover sees.
func TestPanicAction(t *testing.T) {
	in := New(Rule{Site: "w", Action: ActPanic, Times: -1})
	defer func() {
		p := recover()
		f, ok := p.(*Fault)
		if !ok || f.Site != "w" {
			t.Fatalf("panicked with %v, want *Fault{Site: w}", p)
		}
	}()
	in.Hit("w", 0)
	t.Fatal("ActPanic did not panic")
}

// TestDelayAction: an ActDelay rule sleeps and succeeds.
func TestDelayAction(t *testing.T) {
	in := New(Rule{Site: "io", Action: ActDelay, Delay: 10 * time.Millisecond, Times: -1})
	start := time.Now()
	if err := in.Hit("io", 0); err != nil {
		t.Fatalf("delay rule errored: %v", err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("delay rule did not sleep")
	}
}

// TestTimesUnlimited: Times = -1 fires forever.
func TestTimesUnlimited(t *testing.T) {
	in := New(Rule{Site: "x", Action: ActError, Times: -1})
	for i := 0; i < 4; i++ {
		if err := in.Hit("x", 0); err == nil {
			t.Fatalf("hit %d did not fire", i)
		}
	}
}

// TestParse: the plan grammar round-trips into working rules.
func TestParse(t *testing.T) {
	in, err := Parse("journal.append#2:error=disk gone, worker.panic@500:panic, ckpt.write*-1:delay=1ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Hit(SiteJournalAppend, 0); err != nil {
		t.Fatalf("journal hit 1 fired early: %v", err)
	}
	if err := in.Hit(SiteJournalAppend, 0); err == nil {
		t.Fatal("journal hit 2 did not fire")
	} else if err.Error() != "faultinj: journal.append: disk gone" {
		t.Fatalf("unexpected message: %v", err)
	}
	if err := in.Hit(SiteCkptWrite, 0); err != nil {
		t.Fatalf("delay rule errored: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("worker.panic@500 did not panic at value 500")
			}
		}()
		in.Hit(SiteWorkerPanic, 500)
	}()

	for _, bad := range []string{
		"siteonly", "x:explode", "x#zero:error", "x@0:error", "x*0:error",
		"x:delay", "x:delay=potato", ":error",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestSeededDeterministic: the same seed yields the same plan; a different
// seed (almost surely) differs, and firing order is reproducible.
func TestSeededDeterministic(t *testing.T) {
	sites := []string{"a", "b", "c"}
	run := func(seed int64) []string {
		in := Seeded(seed, sites, 4, 5)
		for i := 0; i < 8; i++ {
			for _, s := range sites {
				in.Hit(s, 0) //nolint:errcheck // only the fired log matters
			}
		}
		return in.Fired()
	}
	if a, b := run(42), run(42); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if a, b := run(42), run(43); reflect.DeepEqual(a, b) && len(a) > 0 {
		t.Logf("seeds 42 and 43 coincide (possible but unlikely): %v", a)
	}
}

// TestBackoff: the delay after attempt n lies in [d/2, d] for d = base·2^(n-1)
// capped at max, and two injectors on the same seed replay the same schedule.
func TestBackoff(t *testing.T) {
	base, max := 10*time.Millisecond, 50*time.Millisecond
	a, b := Seeded(7, nil, 0, 0), Seeded(7, nil, 0, 0)
	for i, d := range []time.Duration{base, 2 * base, 4 * base, max, max} {
		attempt := i + 1
		got := a.Backoff(attempt, base, max)
		if got < d/2 || got > d {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, got, d/2, d)
		}
		if again := b.Backoff(attempt, base, max); again != got {
			t.Errorf("attempt %d: same seed gave %v then %v", attempt, got, again)
		}
	}
}
