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
