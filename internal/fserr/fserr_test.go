package fserr

import (
	"testing"

	"dpnfs/internal/store"
)

func TestRoundTripAllVFSErrors(t *testing.T) {
	errs := []error{
		nil,
		store.ErrNotExist,
		store.ErrExist,
		store.ErrIsDir,
		store.ErrNotDir,
		store.ErrNotEmpty,
		store.ErrInval,
	}
	for _, err := range errs {
		if got := ToErrno(err).Err(); got != err {
			t.Errorf("round trip %v -> %v", err, got)
		}
	}
}

func TestUnknownErrorBecomesIO(t *testing.T) {
	if e := ToErrno(ErrStale); e != IO {
		t.Fatalf("foreign error mapped to %v, want IO", e)
	}
	if IO.Err() != ErrIO {
		t.Fatal("IO errno does not map to ErrIO")
	}
}

func TestStaleMapsToErrStale(t *testing.T) {
	if Stale.Err() != ErrStale {
		t.Fatal("Stale errno does not map to ErrStale")
	}
}

func TestOKIsZero(t *testing.T) {
	if OK != 0 {
		t.Fatal("OK must be the zero value: replies rely on it")
	}
	if OK.Err() != nil {
		t.Fatal("OK must map to nil")
	}
}
