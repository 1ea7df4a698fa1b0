package cached

import (
	"testing"

	"dpnfs/internal/store"
	"dpnfs/internal/store/storetest"
	"dpnfs/internal/store/wal"
)

// The benchmark's probes time New as a store backend, so it keeps passing
// every suite a wal store passes.
func newStore(t *testing.T) store.Store { return New(wal.Config{Name: "test"}) }

func TestConformance(t *testing.T) { storetest.Run(t, newStore) }
func TestRecoverable(t *testing.T) { storetest.RunRecoverable(t, newStore) }
func TestCorruptible(t *testing.T) { storetest.RunCorruptible(t, newStore) }
func TestSummedRead(t *testing.T)  { storetest.RunSummedRead(t, newStore) }
func TestSummedWrite(t *testing.T) { storetest.RunSummedWrite(t, newStore) }
func TestReclaimer(t *testing.T)   { storetest.RunReclaimer(t, newStore) }
