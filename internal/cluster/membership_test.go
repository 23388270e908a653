package cluster

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mdgan/internal/simnet"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "worker" + string(rune('0'+i))
	}
	return out
}

func newM(t *testing.T, n int, crashAt map[int][]int, active int) (*Membership, *simnet.ChannelNet) {
	t.Helper()
	net := simnet.NewChannelNet(4)
	m := New(net, rand.New(rand.NewSource(1)), crashAt, active)
	for _, name := range names(n) {
		if err := net.Register(name); err != nil {
			t.Fatal(err)
		}
		m.Add(name)
	}
	return m, net
}

func TestLiveFollowsJoinOrder(t *testing.T) {
	m, net := newM(t, 4, nil, 0)
	defer net.Close()
	if got := m.Live(); !reflect.DeepEqual(got, names(4)) {
		t.Fatalf("Live = %v", got)
	}
	if m.NumLive() != 4 || m.Len() != 4 {
		t.Fatalf("NumLive=%d Len=%d", m.NumLive(), m.Len())
	}
	m.Add("late")
	if got := m.Live(); got[len(got)-1] != "late" {
		t.Fatalf("joiner not last in order: %v", got)
	}
}

func TestApplyCrashesKillsScheduledIndices(t *testing.T) {
	m, net := newM(t, 4, map[int][]int{3: {1, 99, -1}, 5: {1}}, 0)
	defer net.Close()
	m.ApplyCrashes(1) // nothing scheduled
	if m.NumLive() != 4 {
		t.Fatalf("NumLive = %d before any schedule entry", m.NumLive())
	}
	m.ApplyCrashes(3) // kills index 1; out-of-range entries ignored
	if m.Alive("worker1") {
		t.Fatal("worker1 survived its scheduled crash")
	}
	if !net.Down("worker1") {
		t.Fatal("transport was not told about the crash")
	}
	if got := m.Live(); !reflect.DeepEqual(got, []string{"worker0", "worker2", "worker3"}) {
		t.Fatalf("Live = %v", got)
	}
	m.ApplyCrashes(5) // re-killing a dead index is a no-op
	if m.NumLive() != 3 {
		t.Fatalf("NumLive = %d after re-kill", m.NumLive())
	}
}

func TestFailDemotesStraggler(t *testing.T) {
	m, net := newM(t, 3, nil, 0)
	defer net.Close()
	m.Fail("worker2")
	if m.Alive("worker2") || !net.Down("worker2") {
		t.Fatal("Fail did not demote fail-stop style")
	}
	m.Fail("worker2") // idempotent
	if m.NumLive() != 2 {
		t.Fatalf("NumLive = %d", m.NumLive())
	}
	m.Fail("nobody") // unknown names are ignored
}

func TestSampleSubsetsAndStaysSorted(t *testing.T) {
	m, net := newM(t, 6, nil, 2)
	defer net.Close()
	seen := map[string]bool{}
	for round := 0; round < 40; round++ {
		s := m.Sample()
		if len(s) != 2 {
			t.Fatalf("sample size %d", len(s))
		}
		if s[0] >= s[1] {
			t.Fatalf("sample not sorted: %v", s)
		}
		for _, name := range s {
			if !m.Alive(name) {
				t.Fatalf("sampled dead worker %s", name)
			}
			seen[name] = true
		}
	}
	// 40 rounds of 2-of-6: every worker activated with overwhelming
	// probability ((4/6)^40 ≈ 9e-8 per worker of never appearing).
	if len(seen) != 6 {
		t.Fatalf("coverage over rounds: only %d of 6 workers sampled", len(seen))
	}
}

func TestSampleWithoutKnobIsLiveOrderAndDrawsNoRandomness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	before := rng.Int63()
	rng = rand.New(rand.NewSource(7))
	m := New(nil, rng, nil, 0)
	for _, name := range names(5) {
		m.Add(name)
	}
	if got := m.Sample(); !reflect.DeepEqual(got, names(5)) {
		t.Fatalf("Sample = %v", got)
	}
	// ActivePerRound >= live count must also leave the stream alone.
	m2 := New(nil, rng, nil, 5)
	for _, name := range names(5) {
		m2.Add(name)
	}
	m2.Sample()
	if rng.Int63() != before {
		t.Fatal("Sample consumed the RNG without sampling being active")
	}
}

func TestSampleDeterministicForFixedSeed(t *testing.T) {
	run := func() [][]string {
		m := New(nil, rand.New(rand.NewSource(42)), nil, 2)
		for _, name := range names(5) {
			m.Add(name)
		}
		var out [][]string
		for i := 0; i < 10; i++ {
			out = append(out, m.Sample())
		}
		return out
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("sampling not deterministic for a fixed seed")
	}
}

// TestCrashJoinSampleInterleaving drives the three membership
// mechanisms together the way the engines do: crash a worker, join a
// replacement, keep sampling — dead workers never appear, joiners do,
// the order index stays stable for the crash schedule.
func TestCrashJoinSampleInterleaving(t *testing.T) {
	m, net := newM(t, 4, map[int][]int{2: {0}, 6: {2}}, 3)
	defer net.Close()
	for it := 1; it <= 10; it++ {
		m.ApplyCrashes(it)
		if it == 4 {
			if err := net.Register("joiner"); err != nil {
				t.Fatal(err)
			}
			m.Add("joiner")
		}
		active := m.Sample()
		if want := m.ActiveBound(); len(active) != want {
			t.Fatalf("it %d: %d active, bound says %d", it, len(active), want)
		}
		for _, name := range active {
			if !m.Alive(name) {
				t.Fatalf("it %d: dead worker %s sampled", it, name)
			}
		}
	}
	// Schedule indices referred to the original join order even after
	// the join: index 2 was worker2, not the joiner.
	if m.Alive("worker0") || m.Alive("worker2") {
		t.Fatal("scheduled crashes missed their targets")
	}
	if !m.Alive("joiner") || !m.Alive("worker1") || !m.Alive("worker3") {
		t.Fatalf("Live = %v", m.Live())
	}
	if m.NumLive() != 3 || m.Len() != 5 {
		t.Fatalf("NumLive=%d Len=%d", m.NumLive(), m.Len())
	}
}

// TestStopAllReachesOnlyLiveWorkers: the shared shutdown half sends
// one stop per live worker and skips the dead (whose inboxes are
// closed anyway).
func TestStopAllReachesOnlyLiveWorkers(t *testing.T) {
	m, net := newM(t, 3, nil, 0)
	defer net.Close()
	if err := net.Register("server"); err != nil {
		t.Fatal(err)
	}
	m.Fail("worker1")
	m.StopAll("server", "stop")
	for _, tc := range []struct {
		node string
		want bool
	}{{"worker0", true}, {"worker2", true}} {
		select {
		case msg := <-net.Inbox(tc.node):
			if msg.Type != "stop" || msg.From != "server" {
				t.Fatalf("%s got %+v", tc.node, msg)
			}
		default:
			t.Fatalf("%s received no stop", tc.node)
		}
	}
	// The dead worker's inbox was closed by Fail; no send reached it.
	if _, ok := <-net.Inbox("worker1"); ok {
		t.Fatal("dead worker received a message")
	}
	// A nil-net membership is a no-op, not a panic.
	m2 := New(nil, nil, nil, 0)
	m2.Add("w")
	m2.StopAll("server", "stop")
}

func TestActiveBound(t *testing.T) {
	m, net := newM(t, 5, nil, 3)
	defer net.Close()
	if m.ActiveBound() != 3 {
		t.Fatalf("bound = %d", m.ActiveBound())
	}
	m.Fail("worker0")
	m.Fail("worker1")
	m.Fail("worker2")
	if m.ActiveBound() != 2 {
		t.Fatalf("bound = %d with 2 live", m.ActiveBound())
	}
	if m.Name(1) != "worker1" || m.Name(9) != "" {
		t.Fatal("Name indexing broken")
	}
}

// --- Transient-fault lifecycle (suspect → demote → rejoin) ---

func TestSuspectLifecycle(t *testing.T) {
	m, net := newM(t, 3, nil, 0)
	defer net.Close()

	// First miss: suspect, still live, excluded from Active/Sample.
	if demoted := m.Suspect("worker1"); demoted {
		t.Fatal("first miss must not demote")
	}
	if !slices.Contains(m.Suspects(), "worker1") || !m.Alive("worker1") {
		t.Fatal("suspect must stay live")
	}
	if got := m.Active(); !reflect.DeepEqual(got, []string{"worker0", "worker2"}) {
		t.Fatalf("Active = %v", got)
	}
	if got := m.Sample(); !reflect.DeepEqual(got, []string{"worker0", "worker2"}) {
		t.Fatalf("Sample = %v", got)
	}
	if got := m.Live(); !reflect.DeepEqual(got, names(3)) {
		t.Fatalf("Live must retain the suspect: %v", got)
	}
	if m.numActive() != 2 || m.NumSuspect() != 1 || m.NumLive() != 3 {
		t.Fatalf("numActive=%d NumSuspect=%d NumLive=%d", m.numActive(), m.NumSuspect(), m.NumLive())
	}
	if got := m.Suspects(); !reflect.DeepEqual(got, []string{"worker1"}) {
		t.Fatalf("Suspects = %v", got)
	}

	// Reinstatement clears the consecutive-miss counter.
	if !m.Reinstate("worker1") {
		t.Fatal("reinstating a live suspect must succeed")
	}
	if slices.Contains(m.Suspects(), "worker1") || m.numActive() != 3 {
		t.Fatal("reinstated worker must be active again")
	}
	if m.Reinstate("worker1") {
		t.Fatal("reinstating a non-suspect must report false")
	}

	// Escalation: DefaultSuspectAfter consecutive misses demote.
	var demoted bool
	for i := 0; i < DefaultSuspectAfter; i++ {
		demoted = m.Suspect("worker1")
	}
	if !demoted {
		t.Fatalf("%d consecutive misses must demote", DefaultSuspectAfter)
	}
	if m.Alive("worker1") || slices.Contains(m.Suspects(), "worker1") {
		t.Fatal("demoted worker must leave both live and suspect sets")
	}
	if m.Suspect("worker1") {
		t.Fatal("suspecting a dead worker must be a no-op")
	}
	if m.Reinstate("worker1") {
		t.Fatal("a demoted worker cannot be reinstated")
	}

	f := m.Faults(7)
	if f.Suspects != DefaultSuspectAfter+1 || f.Rejoins != 1 || f.Demotions != 1 {
		t.Fatalf("fault totals = %+v", f)
	}
	if f.TransportRetries != 7 || !f.Any() {
		t.Fatalf("retries not carried through: %+v", f)
	}
	w1 := f.Workers["worker1"]
	if w1.Suspects != DefaultSuspectAfter+1 || w1.Rejoins != 1 || w1.Demotions != 1 {
		t.Fatalf("worker1 counters = %+v", w1)
	}
}

func TestSuspectThresholdKnob(t *testing.T) {
	m, net := newM(t, 2, nil, 0)
	defer net.Close()
	m.SetSuspectThreshold(1)
	if !m.Suspect("worker0") {
		t.Fatal("threshold 1 must demote on the first miss")
	}
	m.SetSuspectThreshold(-1)
	for i := 0; i < 50; i++ {
		if m.Suspect("worker1") {
			t.Fatal("negative threshold must never escalate")
		}
	}
	if !m.Alive("worker1") || !slices.Contains(m.Suspects(), "worker1") {
		t.Fatal("unescalated suspect must stay live")
	}
	if m.SuspectThreshold() != int(^uint(0)>>1) {
		t.Fatalf("resolved threshold = %d", m.SuspectThreshold())
	}
	m.SetSuspectThreshold(0)
	if m.SuspectThreshold() != DefaultSuspectAfter {
		t.Fatalf("default threshold = %d", m.SuspectThreshold())
	}
}

func TestScheduledCrashesAreNotCountedAsDemotions(t *testing.T) {
	m, net := newM(t, 3, map[int][]int{2: {0}}, 0)
	defer net.Close()
	m.ApplyCrashes(2)
	m.Fail("worker1")
	f := m.Faults(0)
	if f.Demotions != 1 {
		t.Fatalf("demotions = %d: the scheduled crash is injected, not detected", f.Demotions)
	}
	if _, ok := f.Workers["worker0"]; ok {
		t.Fatal("crashed worker must have no fault record")
	}
}

func TestCorruptStrikesAccumulate(t *testing.T) {
	m, net := newM(t, 2, nil, 0)
	defer net.Close()
	if n := m.NoteCorrupt("worker0"); n != 1 {
		t.Fatalf("first strike = %d", n)
	}
	if n := m.NoteCorrupt("worker0"); n != 2 {
		t.Fatalf("second strike = %d", n)
	}
	m.NoteTimeout("worker0")
	f := m.Faults(0)
	if f.CorruptFrames != 2 || f.Timeouts != 1 {
		t.Fatalf("totals = %+v", f)
	}
	if s := f.String(); s == "" {
		t.Fatal("summary must render")
	}
}

func TestSuspectExcludedFromActiveBoundAndStopAllStillReaches(t *testing.T) {
	m, net := newM(t, 3, nil, 2)
	defer net.Close()
	if err := net.Register("srv"); err != nil {
		t.Fatal(err)
	}
	m.Suspect("worker2")
	if b := m.ActiveBound(); b != 2 {
		t.Fatalf("ActiveBound = %d", b)
	}
	m.Suspect("worker1")
	if b := m.ActiveBound(); b != 1 {
		t.Fatalf("ActiveBound with 2 suspects = %d", b)
	}
	// Shutdown must still reach suspects: their goroutines are alive.
	m.StopAll("srv", "stop")
	for _, name := range names(3) {
		select {
		case msg := <-net.Inbox(name):
			if msg.Type != "stop" {
				t.Fatalf("%s got %q", name, msg.Type)
			}
		default:
			t.Fatalf("%s (suspect or not) must receive stop", name)
		}
	}
}
