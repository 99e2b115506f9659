// Package transporttest is the reusable conformance suite for
// engine.Transport implementations. It encodes the delivery-order contract
// the runtime's determinism rests on — per-sender send order, Flip-barrier
// delivery, ascending-sender-id drain grouping, cumulative traffic
// accounting — as ordinary subtests, so every transport (in-memory, TCP,
// and any future latency-injecting or lossy wrapper) proves the same
// contract with one call:
//
//	transporttest.Run(t, func(t *testing.T, p int) engine.Transport {
//		return engine.NewMemTransport(p)
//	})
//
// Factories register cleanup with t.Cleanup when the transport holds
// resources (sockets, goroutines). The suite follows the runtime's usage
// discipline — Flip never overlaps Send or Drain, inbox k is drained only
// by one goroutine, delivered batches are drained before the next Flip —
// and only promises behaviour under that discipline, exactly like the
// interface contract.
package transporttest

import (
	"fmt"
	"sync"
	"testing"

	"github.com/graphpart/graphpart/internal/engine"
)

// Factory builds a fresh transport for p machines. Implementations needing
// teardown (sockets, reader goroutines) register it with t.Cleanup.
type Factory func(t *testing.T, p int) engine.Transport

// Run executes the full conformance suite against transports built by f.
func Run(t *testing.T, f Factory) {
	t.Run("FlipBarrierDelivery", func(t *testing.T) { testFlipBarrier(t, f) })
	t.Run("PerSenderOrder", func(t *testing.T) { testPerSenderOrder(t, f) })
	t.Run("AscendingSenderGrouping", func(t *testing.T) { testGrouping(t, f) })
	t.Run("MessageKindsRoundTrip", func(t *testing.T) { testKinds(t, f) })
	t.Run("ConcurrentSenders", func(t *testing.T) { testConcurrentSenders(t, f) })
	t.Run("TrafficAccounting", func(t *testing.T) { testAccounting(t, f) })
}

// act builds an Activate whose Local encodes (sender, sequence) so tests can
// recover provenance from a drained inbox.
func act(sender, seq int) *engine.Activate {
	return &engine.Activate{Local: int32(sender*100000 + seq)}
}

func senderOf(m engine.Message) int { return int(m.(*engine.Activate).Local) / 100000 }
func seqOf(m engine.Message) int    { return int(m.(*engine.Activate).Local) % 100000 }

// testFlipBarrier checks messages become drainable exactly at the Flip
// after they were sent: nothing before any Flip, nothing sent after a Flip
// leaks into that Flip's batch.
func testFlipBarrier(t *testing.T, f Factory) {
	tr := f(t, 2)
	tr.Send(0, 1, act(0, 0))
	if got := tr.Drain(1); len(got) != 0 {
		t.Fatalf("drained %d messages before any Flip, want 0", len(got))
	}
	tr.Flip()
	tr.Send(0, 1, act(0, 1)) // belongs to the next batch
	got := tr.Drain(1)
	if len(got) != 1 || seqOf(got[0]) != 0 {
		t.Fatalf("first batch = %v, want exactly the pre-Flip message", got)
	}
	tr.Flip()
	got = tr.Drain(1)
	if len(got) != 1 || seqOf(got[0]) != 1 {
		t.Fatalf("second batch = %v, want exactly the post-Flip message", got)
	}
	tr.Flip()
	if got := tr.Drain(1); len(got) != 0 {
		t.Fatalf("empty phase drained %d messages, want 0", len(got))
	}
}

// testPerSenderOrder checks a single sender's messages arrive in send order.
func testPerSenderOrder(t *testing.T, f Factory) {
	tr := f(t, 3)
	const n = 200
	for i := 0; i < n; i++ {
		tr.Send(0, 2, act(0, i))
	}
	tr.Flip()
	got := tr.Drain(2)
	if len(got) != n {
		t.Fatalf("drained %d messages, want %d", len(got), n)
	}
	for i, m := range got {
		if seqOf(m) != i {
			t.Fatalf("message %d has sequence %d: per-sender order not preserved", i, seqOf(m))
		}
	}
}

// testGrouping checks a drained inbox is grouped by ascending sender id
// with per-sender order preserved, regardless of send interleaving.
func testGrouping(t *testing.T, f Factory) {
	tr := f(t, 4)
	// Interleave sends from three senders into inbox 3.
	for i := 0; i < 50; i++ {
		tr.Send(2, 3, act(2, i))
		tr.Send(0, 3, act(0, i))
		tr.Send(1, 3, act(1, i))
	}
	tr.Flip()
	got := tr.Drain(3)
	if len(got) != 150 {
		t.Fatalf("drained %d messages, want 150", len(got))
	}
	lastSender, lastSeq := -1, -1
	for i, m := range got {
		s, q := senderOf(m), seqOf(m)
		if s < lastSender {
			t.Fatalf("message %d from sender %d after sender %d: not grouped ascending", i, s, lastSender)
		}
		if s > lastSender {
			lastSender, lastSeq = s, -1
		}
		if q != lastSeq+1 {
			t.Fatalf("sender %d message out of order: seq %d after %d", s, q, lastSeq)
		}
		lastSeq = q
	}
	if lastSender != 2 {
		t.Fatalf("last sender = %d, want 2 (all three groups present)", lastSender)
	}
}

// testKinds checks every message kind crosses the transport with its fields
// intact (by value — a wire transport decodes fresh structs).
func testKinds(t *testing.T, f Factory) {
	tr := f(t, 2)
	gf := &engine.GatherFlush{
		MasterLocal: 7,
		Slots:       []int32{0, 3, 9},
		Contribs:    []float64{0.25, -1.5, 3.75},
	}
	ab := &engine.ApplyBroadcast{MirrorLocal: 11, Value: 2.5, Changed: true, Active: false}
	av := &engine.Activate{Local: 13}
	tr.Send(0, 1, gf)
	tr.Send(0, 1, ab)
	tr.Send(0, 1, av)
	tr.Flip()
	got := tr.Drain(1)
	if len(got) != 3 {
		t.Fatalf("drained %d messages, want 3", len(got))
	}
	g, ok := got[0].(*engine.GatherFlush)
	if !ok {
		t.Fatalf("message 0 is %T, want *GatherFlush", got[0])
	}
	if g.MasterLocal != 7 || len(g.Slots) != 3 || g.Slots[1] != 3 || g.Contribs[2] != 3.75 || g.Contribs[1] != -1.5 {
		t.Errorf("GatherFlush corrupted in transit: %+v", g)
	}
	b, ok := got[1].(*engine.ApplyBroadcast)
	if !ok {
		t.Fatalf("message 1 is %T, want *ApplyBroadcast", got[1])
	}
	if b.MirrorLocal != 11 || b.Value != 2.5 || !b.Changed || b.Active {
		t.Errorf("ApplyBroadcast corrupted in transit: %+v", b)
	}
	a, ok := got[2].(*engine.Activate)
	if !ok {
		t.Fatalf("message 2 is %T, want *Activate", got[2])
	}
	if a.Local != 13 {
		t.Errorf("Activate corrupted in transit: %+v", a)
	}
}

// testConcurrentSenders checks distinct senders may send concurrently (the
// runtime's machines do) without losing messages, order, or grouping.
func testConcurrentSenders(t *testing.T, f Factory) {
	const p, per = 6, 120
	tr := f(t, p)
	var wg sync.WaitGroup
	for s := 0; s < p; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for to := 0; to < p; to++ {
					if to != s {
						tr.Send(s, to, act(s, i))
					}
				}
			}
		}(s)
	}
	wg.Wait()
	tr.Flip()
	for k := 0; k < p; k++ {
		got := tr.Drain(k)
		if len(got) != (p-1)*per {
			t.Fatalf("inbox %d drained %d messages, want %d", k, len(got), (p-1)*per)
		}
		lastSender, lastSeq := -1, -1
		for i, m := range got {
			s, q := senderOf(m), seqOf(m)
			if s == k {
				t.Fatalf("inbox %d contains a message from itself", k)
			}
			if s < lastSender {
				t.Fatalf("inbox %d message %d: sender %d after %d", k, i, s, lastSender)
			}
			if s > lastSender {
				lastSender, lastSeq = s, -1
			}
			if q != lastSeq+1 {
				t.Fatalf("inbox %d sender %d: seq %d after %d", k, s, q, lastSeq)
			}
			lastSeq = q
		}
	}
}

// testAccounting checks the cumulative counters: totals match the per-link
// matrix, bytes are at least the payload (WireSize) bytes, per-kind counts
// and bytes are attributed correctly, and counters accumulate across Flips.
func testAccounting(t *testing.T, f Factory) {
	tr := f(t, 3)
	var wantMsgs, wantPayload int64
	var kindPayload [3]int64 // indexed by engine.Kind
	send := func(from, to int, m engine.Message) {
		tr.Send(from, to, m)
		wantMsgs++
		wantPayload += int64(m.WireSize())
		kindPayload[m.MessageKind()] += int64(m.WireSize())
	}
	for phase := 0; phase < 3; phase++ {
		send(0, 1, &engine.GatherFlush{MasterLocal: 1, Slots: []int32{0, 1}, Contribs: []float64{1, 2}})
		send(1, 2, &engine.ApplyBroadcast{MirrorLocal: 2, Value: 1})
		send(2, 0, &engine.Activate{Local: 3})
		send(2, 1, &engine.Activate{Local: 4})
		tr.Flip()
		for k := 0; k < 3; k++ {
			tr.Drain(k)
		}
	}
	tot := tr.Totals()
	if tot.Messages() != wantMsgs {
		t.Errorf("Totals().Messages() = %d, want %d", tot.Messages(), wantMsgs)
	}
	if tot.GatherMessages != 3 || tot.ApplyMessages != 3 || tot.ActivateMessages != 6 {
		t.Errorf("per-kind counts = %d/%d/%d, want 3/3/6",
			tot.GatherMessages, tot.ApplyMessages, tot.ActivateMessages)
	}
	if tot.Bytes() < wantPayload {
		t.Errorf("Totals().Bytes() = %d, want >= payload bytes %d", tot.Bytes(), wantPayload)
	}
	// Each kind's bytes exceed its payload by the same per-message
	// overhead: 0 in memory, the frame header on a socket.
	msgs := [3]int64{tot.GatherMessages, tot.ApplyMessages, tot.ActivateMessages}
	got := [3]int64{tot.GatherBytes, tot.ApplyBytes, tot.ActivateBytes}
	over := (got[0] - kindPayload[0]) / msgs[0]
	for k := range msgs {
		if over < 0 || got[k]-kindPayload[k] != over*msgs[k] {
			t.Errorf("%v: %d bytes for %d messages of %d payload bytes, want gather's %d-byte overhead per message",
				engine.Kind(k), got[k], msgs[k], kindPayload[k], over)
		}
	}
	links := tr.Traffic()
	if links.P() != 3 {
		t.Fatalf("Traffic().P() = %d, want 3", links.P())
	}
	if got := links.TotalMessages(); got != tot.Messages() {
		t.Errorf("matrix total %d messages != totals %d", got, tot.Messages())
	}
	if got := links.TotalBytes(); got != tot.Bytes() {
		t.Errorf("matrix total %d bytes != totals %d", got, tot.Bytes())
	}
	wantLinks := map[[2]int]int64{{0, 1}: 3, {1, 2}: 3, {2, 0}: 3, {2, 1}: 3}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if got := links.Messages[i][j]; got != wantLinks[[2]int{i, j}] {
				t.Errorf("link %d->%d carried %d messages, want %d", i, j, got, wantLinks[[2]int{i, j}])
			}
		}
	}
	if err := checkDiagonal(links); err != nil {
		t.Error(err)
	}
}

// checkDiagonal verifies no traffic was accounted machine-local.
func checkDiagonal(links *engine.TrafficMatrix) error {
	for i := range links.Messages {
		if links.Messages[i][i] != 0 || links.Bytes[i][i] != 0 {
			return fmt.Errorf("traffic matrix diagonal [%d][%d] nonzero: %d messages / %d bytes",
				i, i, links.Messages[i][i], links.Bytes[i][i])
		}
	}
	return nil
}
