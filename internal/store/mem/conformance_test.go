package mem_test

import (
	"testing"

	"dpnfs/internal/store"
	"dpnfs/internal/store/mem"
	"dpnfs/internal/store/storetest"
)

func TestConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) store.Store { return mem.New() })
}

func TestCorruptible(t *testing.T) {
	storetest.RunCorruptible(t, func(t *testing.T) store.Store { return mem.New() })
}

func TestSummedRead(t *testing.T) {
	storetest.RunSummedRead(t, func(t *testing.T) store.Store { return mem.New() })
}

func TestSummedWrite(t *testing.T) {
	storetest.RunSummedWrite(t, func(t *testing.T) store.Store { return mem.New() })
}

func TestReclaimer(t *testing.T) {
	storetest.RunReclaimer(t, func(t *testing.T) store.Store { return mem.New() })
}
