// Package faultinj is a deterministic fault-injection harness for the
// durability layer. Production code declares named fault sites — points
// where an I/O write, a checkpoint capture or a worker can fail — and calls
// Hit at each one; an Injector armed with rules decides, purely as a
// function of the hit sequence, whether that site fails now. Because the
// decision depends only on how many times each site was hit (or on a
// monotonic value the caller passes, such as the retired-instruction
// count), a test that arms the same plan against the same workload sees the
// same fault at the same place every run: recovery paths are exercised by
// construction, not by luck.
//
// A nil *Injector is a valid no-op, so production wiring passes nil and
// pays one pointer test per site.
package faultinj

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Canonical site names used across the repository. Sites are open-ended —
// any string works — but the durability layer sticks to this catalog so
// plans are portable across tests and the CLI.
const (
	// SiteJournalAppend is hit before each job-journal frame write.
	SiteJournalAppend = "journal.append"
	// SiteResultWrite is hit before each durable result-file write.
	SiteResultWrite = "result.write"
	// SiteCkptWrite is hit before each durable checkpoint-file write.
	SiteCkptWrite = "ckpt.write"
	// SiteCkptRead is hit before each checkpoint-file read.
	SiteCkptRead = "ckpt.read"
	// SiteWorkerPanic is hit at every drained checkpoint boundary of a
	// running job, with the retired-instruction count as the value; a panic
	// rule here simulates a worker crash at retirement N.
	SiteWorkerPanic = "worker.panic"
	// SiteTparSegment is hit at the start of every time-parallel segment
	// execution (speculative, re-run and reassigned alike), with the
	// segment's starting retired-instruction count as the value. A panic
	// rule here kills one segment worker mid-sweep; internal/tpar recovers
	// by reassigning the segment to another worker, and the stitched result
	// must stay byte-identical.
	SiteTparSegment = "tpar.segment"
	// SiteRPCDrop is hit before every RCPNRPC1 frame send on a
	// coordinator↔worker connection. An error rule drops the frame on the
	// floor (simulated loss — the stream stays framed, the peer just never
	// sees the message), a corrupt rule flips a payload byte after the CRC
	// is computed (the receiver detects the mismatch and tears the
	// connection down), and a delay rule stalls the send. All three are how
	// tests prove that frame loss, corruption and latency never change
	// result bytes: the shard layer times out, evicts and reassigns.
	SiteRPCDrop = "rpc.drop"
)

// Action is what a fired rule does.
type Action int

const (
	// ActError makes Hit return a *Fault error.
	ActError Action = iota
	// ActPanic makes Hit panic (simulating a worker crash; the batch
	// layer's recover turns it into a Panicked result).
	ActPanic
	// ActDelay makes Hit sleep for Rule.Delay and then succeed
	// (simulating slow I/O without failing it).
	ActDelay
	// ActCorrupt makes Hit return a *Fault whose Act is ActCorrupt. Only
	// sites that know how to damage their payload honor it (the RPC frame
	// writer flips a byte after computing the CRC); everywhere else it
	// behaves exactly like ActError.
	ActCorrupt
)

func (a Action) String() string {
	switch a {
	case ActError:
		return "error"
	case ActPanic:
		return "panic"
	case ActDelay:
		return "delay"
	case ActCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Rule arms one fault. The trigger is OnHit (fire on the Nth Hit of the
// site, 1-based), or AtValue (fire on the first Hit whose value reaches
// AtValue); with neither set the rule fires on every hit. Times bounds how
// often the rule fires before disarming (0 means once, -1 means forever).
type Rule struct {
	Site    string
	OnHit   int
	AtValue uint64
	Times   int
	Action  Action
	Msg     string
	Delay   time.Duration
}

// Fault is the error an ActError or ActCorrupt rule injects. Act tells a
// site that distinguishes the two (the RPC frame writer) which one fired;
// callers that ignore it see both as plain injected errors.
type Fault struct {
	Site string
	Msg  string
	Act  Action
}

func (f *Fault) Error() string {
	if f.Msg != "" {
		return fmt.Sprintf("faultinj: %s: %s", f.Site, f.Msg)
	}
	return fmt.Sprintf("faultinj: injected fault at %s", f.Site)
}

type armedRule struct {
	Rule
	left int // firings remaining; -1 = unlimited
}

// Injector holds armed rules and per-site hit counters. Safe for
// concurrent use; the zero value and the nil pointer are inert.
type Injector struct {
	mu    sync.Mutex
	rules []*armedRule
	hits  map[string]int
	fired []string
	rng   *rand.Rand
}

// New builds an injector with the given rules armed.
func New(rules ...Rule) *Injector {
	in := &Injector{hits: make(map[string]int)}
	for _, r := range rules {
		in.Arm(r)
	}
	return in
}

// Arm adds a rule.
func (in *Injector) Arm(r Rule) {
	left := r.Times
	if left == 0 {
		left = 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.hits == nil {
		in.hits = make(map[string]int)
	}
	in.rules = append(in.rules, &armedRule{Rule: r, left: left})
}

// Hit reports site execution number len+1 with an optional monotonic value
// (pass 0 when the site has no natural value). It returns the injected
// error, panics, or sleeps according to the first matching armed rule, and
// returns nil when nothing fires. Nil-receiver safe.
func (in *Injector) Hit(site string, value uint64) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	if in.hits == nil {
		in.hits = make(map[string]int)
	}
	in.hits[site]++
	n := in.hits[site]
	var match *armedRule
	for _, r := range in.rules {
		if r.Site != site || r.left == 0 {
			continue
		}
		if r.OnHit > 0 && n != r.OnHit {
			continue
		}
		if r.AtValue > 0 && value < r.AtValue {
			continue
		}
		match = r
		break
	}
	if match == nil {
		in.mu.Unlock()
		return nil
	}
	if match.left > 0 {
		match.left--
	}
	in.fired = append(in.fired, fmt.Sprintf("%s#%d:%s", site, n, match.Action))
	act, msg, delay := match.Action, match.Msg, match.Delay
	in.mu.Unlock()

	switch act {
	case ActPanic:
		if msg == "" {
			msg = "injected worker crash"
		}
		panic(&Fault{Site: site, Msg: msg})
	case ActDelay:
		time.Sleep(delay)
		return nil
	default: // ActError and ActCorrupt differ only in the Act the caller sees
		return &Fault{Site: site, Msg: msg, Act: act}
	}
}

// Rand63n draws a pseudo-random int64 in [0, n). An armed injector answers
// from its own seeded stream (default seed 1; Seeded carries its seed
// through), so anything randomized next to fault injection — retry jitter,
// backoff spreads — replays identically in a test sweep. A nil injector
// falls back to the global source: production jitter stays genuinely
// random.
func (in *Injector) Rand63n(n int64) int64 {
	if n <= 0 {
		return 0
	}
	if in == nil {
		return rand.Int63n(n)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.rng == nil {
		in.rng = rand.New(rand.NewSource(1))
	}
	return in.rng.Int63n(n)
}

// Backoff is the retry delay after the given completed attempt count:
// exponential from base, capped at max, with half-width jitter so
// synchronized retries spread out. The jitter comes from Rand63n, so an
// armed injector replays the same retry schedule every time.
func (in *Injector) Backoff(attempt int, base, max time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d/2 + time.Duration(in.Rand63n(int64(d/2)+1))
}

// Hits returns how many times site has been hit so far.
func (in *Injector) Hits(site string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[site]
}

// Fired returns the log of fired rules, in firing order, as
// "site#hit:action" strings.
func (in *Injector) Fired() []string {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.fired...)
}

// Parse builds an injector from a comma-separated plan string, one rule per
// element:
//
//	site[#N][@V][*T]:action[=arg]
//
// #N fires on the Nth hit (default: first match), @V fires once the hit
// value reaches V, *T allows T firings (-1 = unlimited). action is error,
// panic, corrupt or delay (delay requires arg as a Go duration; the others
// take an optional message). Examples:
//
//	journal.append#2:error
//	worker.panic@50000:panic=crash at 50k retirements
//	ckpt.write*-1:delay=5ms
//	rpc.drop#3:corrupt
func Parse(spec string) (*Injector, error) {
	in := New()
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		head, action, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("faultinj: rule %q: want site:action", part)
		}
		var r Rule
		if s, times, ok := strings.Cut(head, "*"); ok {
			t, err := strconv.Atoi(times)
			if err != nil || t == 0 || t < -1 {
				return nil, fmt.Errorf("faultinj: rule %q: bad times %q", part, times)
			}
			r.Times = t
			head = s
		}
		if s, v, ok := strings.Cut(head, "@"); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("faultinj: rule %q: bad value %q", part, v)
			}
			r.AtValue = n
			head = s
		}
		if s, v, ok := strings.Cut(head, "#"); ok {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("faultinj: rule %q: bad hit count %q", part, v)
			}
			r.OnHit = n
			head = s
		}
		r.Site = strings.TrimSpace(head)
		if r.Site == "" {
			return nil, fmt.Errorf("faultinj: rule %q: empty site", part)
		}
		verb, arg, _ := strings.Cut(action, "=")
		switch verb {
		case "error":
			r.Action, r.Msg = ActError, arg
		case "panic":
			r.Action, r.Msg = ActPanic, arg
		case "corrupt":
			r.Action, r.Msg = ActCorrupt, arg
		case "delay":
			d, err := time.ParseDuration(arg)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faultinj: rule %q: delay needs a duration arg", part)
			}
			r.Action, r.Delay = ActDelay, d
		default:
			return nil, fmt.Errorf("faultinj: rule %q: unknown action %q", part, verb)
		}
		in.Arm(r)
	}
	return in, nil
}

// Seeded derives a deterministic random plan: n ActError rules spread over
// the given sites with hit counts in [1, maxHit]. The same (seed, sites, n,
// maxHit) always produces the same plan, so a test sweep can cover many
// fault placements while every placement stays reproducible.
func Seeded(seed int64, sites []string, n, maxHit int) *Injector {
	sites = append([]string(nil), sites...)
	sort.Strings(sites)
	rng := rand.New(rand.NewSource(seed))
	in := New()
	in.rng = rng // Rand63n continues the same seeded stream
	if len(sites) == 0 || n <= 0 {
		return in
	}
	if maxHit < 1 {
		maxHit = 1
	}
	for i := 0; i < n; i++ {
		in.Arm(Rule{
			Site:   sites[rng.Intn(len(sites))],
			OnHit:  1 + rng.Intn(maxHit),
			Action: ActError,
			Msg:    fmt.Sprintf("seeded fault %d (seed %d)", i, seed),
		})
	}
	return in
}
