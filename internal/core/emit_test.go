package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"megaphone/internal/dataflow"
)

// blobState is a bin state of arbitrary serialized size.
type blobState struct{ Data []byte }

// TestStateEmitterBoundsBatches: a migration of many small bins plus one
// bin of about three chunks leaves F as several batches, none carrying more
// than the limit plus one chunk of payload; the large bin's chunks straddle
// batch boundaries and still reassemble, and every bin completes once.
func TestStateEmitterBoundsBatches(t *testing.T) {
	const limit = 1024
	payloads := map[int][]byte{}
	for b := 0; b < 40; b++ {
		payloads[b] = bytes.Repeat([]byte{byte(b)}, 30+b)
	}
	const big = 17
	payloads[big] = bytes.Repeat([]byte("0123456789abcdef"), 3*limit/16+3)

	var batches [][]StateMsg
	e := stateEmitter{limit: limit, send: func(msgs []StateMsg) {
		batches = append(batches, append([]StateMsg(nil), msgs...))
	}}
	for b := 0; b < 40; b++ {
		e.addBin(b, 1, payloads[b])
	}
	e.flush()

	if len(batches) < 4 {
		t.Fatalf("%d batches for ~%d payload bytes at limit %d", len(batches), 4*limit, limit)
	}
	var asm chunkAssembler
	done := map[int]int{}
	bigBatches := map[int]bool{}
	for i, batch := range batches {
		sum := 0
		for _, m := range batch {
			sum += len(m.Bytes)
		}
		if last := len(batch[len(batch)-1].Bytes); sum-last >= limit {
			t.Fatalf("batch %d carries %d payload bytes, more than limit %d plus its last chunk (%d)", i, sum, limit, last)
		}
		for _, m := range batch {
			if m.Bin == big {
				bigBatches[i] = true
			}
			if len(m.Bytes) > limit {
				t.Fatalf("batch %d: bin %d chunk of %d bytes exceeds the limit", i, m.Bin, len(m.Bytes))
			}
			p, ok := asm.add(m)
			if !ok {
				continue
			}
			done[m.Bin]++
			if !bytes.Equal(p, payloads[m.Bin]) {
				t.Fatalf("bin %d reassembled to %d bytes, want %d", m.Bin, len(p), len(payloads[m.Bin]))
			}
		}
	}
	if len(bigBatches) < 2 {
		t.Fatalf("the %d-byte bin fit in one batch; want it to straddle batches", len(payloads[big]))
	}
	for b := 0; b < 40; b++ {
		if done[b] != 1 {
			t.Fatalf("bin %d completed %d times, want once", b, done[b])
		}
	}

	// Chunking disabled: the whole migration is one batch.
	batches = nil
	e = stateEmitter{limit: -1, send: e.send}
	for b := 0; b < 40; b++ {
		e.addBin(b, 1, payloads[b])
	}
	e.flush()
	if len(batches) != 1 || len(batches[0]) != 40 {
		t.Fatalf("limit -1: %d batches, want one of 40 messages", len(batches))
	}
}

// TestBoundedMigrationInstallsEachBinOnce drives the same shape of
// migration through the operator: every bin of worker 0, one of them about
// three ChunkBytes large, moves to worker 1 in one command. Each bin must be
// counted shipped once (Handle.Migrated) and installed once (OnInstall),
// with its state intact on the new owner.
func TestBoundedMigrationInstallsEachBinOnce(t *testing.T) {
	const logBins, chunk = 6, 1024
	h := &Handle[uint64, blobState, uint64]{}
	var mu sync.Mutex
	installs := map[int]int{}
	h.OnInstall = func(_ Time, bin, worker int) {
		mu.Lock()
		defer mu.Unlock()
		if worker != 1 {
			t.Errorf("bin %d installed on worker %d, want 1", bin, worker)
		}
		installs[bin]++
	}
	want := map[int][]byte{}
	exec := dataflow.NewExecution(dataflow.Config{Workers: 2})
	var ctls []*dataflow.InputHandle[Move]
	var ins []*dataflow.InputHandle[uint64]
	exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[Move](w, "control")
		in, data := dataflow.NewInput[uint64](w, "input")
		ctls, ins = append(ctls, ctl), append(ins, in)
		Unary(w, Config{Name: "blob", LogBins: logBins, Transfer: TransferGob, ChunkBytes: chunk},
			ctlStream, data,
			Mix64,
			func() *blobState { return &blobState{} },
			func(Time, uint64, *blobState, *Notificator[uint64, blobState, uint64], func(uint64)) {},
			h)
	})
	var moves []Move
	for b := 0; b < 1<<logBins; b++ {
		if InitialWorker(b, 2) != 0 {
			continue
		}
		data := []byte(fmt.Sprintf("bin %d state", b))
		if b == 2 {
			data = bytes.Repeat([]byte{0xab}, 3*chunk+100)
		}
		want[b] = data
		h.Preload(0, b, func(s *blobState) { s.Data = data })
		moves = append(moves, Move{Bin: b, Worker: 1})
	}
	exec.Start()
	ctls[0].SendAt(1, moves...)
	for _, c := range ctls {
		c.AdvanceTo(3)
		c.Close()
	}
	for _, in := range ins {
		in.AdvanceTo(3)
		in.Close()
	}
	exec.Wait()

	if got := h.Migrated(0); got != len(want) {
		t.Fatalf("worker 0 shipped %d bins, want %d", got, len(want))
	}
	if got := h.Migrated(1); got != 0 {
		t.Fatalf("worker 1 shipped %d bins, want 0", got)
	}
	if len(installs) != len(want) {
		t.Fatalf("%d bins installed, want %d", len(installs), len(want))
	}
	for b, data := range want {
		if installs[b] != 1 {
			t.Fatalf("bin %d installed %d times, want once", b, installs[b])
		}
		got := h.bins[1].data[b]
		if got == nil || !bytes.Equal(got.State.Data, data) {
			t.Fatalf("bin %d arrived corrupted on worker 1", b)
		}
	}
	if n := h.Bins(0); n != 0 {
		t.Fatalf("worker 0 still holds %d bins", n)
	}
}
