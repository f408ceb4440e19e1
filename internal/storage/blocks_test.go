package storage_test

import (
	"testing"

	"pado/internal/simnet"
	"pado/internal/storage"
	"pado/internal/storage/blocktest"
)

// TestServiceServesBlockProtocol runs the shared conformance table
// against a stable-storage node with a disk limiter.
func TestServiceServesBlockProtocol(t *testing.T) {
	net := simnet.New(simnet.Config{})
	n, err := net.AddNode("s0")
	if err != nil {
		t.Fatal(err)
	}
	svc := storage.NewServiceDisk([]*simnet.Node{n}, 64<<20)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	blocktest.Drive(t, net, "s0")
	if svc.UsedBytes() != int64(len("v2")) {
		t.Errorf("service holds %d bytes after the table, want %d", svc.UsedBytes(), len("v2"))
	}
}

// TestCommitServiceServesBlockProtocol runs the content-addressed table
// against a commit-service node: its chunk space is a block store that
// takes a payload only under its own hash.
func TestCommitServiceServesBlockProtocol(t *testing.T) {
	net := simnet.New(simnet.Config{})
	n, err := net.AddNode("cas0")
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewCommitStore()
	svc := storage.NewCommitService(store, []*simnet.Node{n})
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	blocktest.DriveChunks(t, net, "cas0")
	if st := store.Stats(); st.Chunks != 1 || st.DedupPuts != 1 {
		t.Errorf("store holds %d chunks after %d deduplicated puts, want 1 and 1", st.Chunks, st.DedupPuts)
	}
}
