package energy

import (
	"math"
	"testing"
)

func meter(t *testing.T, n int) *Meter {
	t.Helper()
	m, err := NewMeter(n, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestChargesAccumulate(t *testing.T) {
	m := meter(t, 3)
	m.ChargeTx(1, 100)
	m.ChargeRx(1, 50)
	model := DefaultModel()
	want := 100*model.TxPerByte + 50*model.RxPerByte
	if got := m.MaxSpent(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("MaxSpent = %v, want %v", got, want)
	}
	if got := m.TotalSpent(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("TotalSpent = %v, want %v: an uncharged node spent energy", got, want)
	}
}

func TestIdleChargesEveryone(t *testing.T) {
	m := meter(t, 4)
	m.ChargeIdle(10)
	want := 10 * DefaultModel().IdlePerSec
	if got := m.MaxSpent(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("MaxSpent = %v, want %v", got, want)
	}
	if got := m.TotalSpent(); math.Abs(got-3*want) > 1e-15 {
		t.Fatalf("TotalSpent over 3 sensors = %v, want %v", got, 3*want)
	}
}

func TestAggregateStats(t *testing.T) {
	m := meter(t, 4)
	m.ChargeTx(1, 100)
	m.ChargeTx(2, 300)
	m.ChargeTx(0, 999) // excluded
	model := DefaultModel()
	if got, want := m.TotalSpent(), 400*model.TxPerByte; math.Abs(got-want) > 1e-15 {
		t.Fatalf("TotalSpent = %v, want %v", got, want)
	}
	if got, want := m.MaxSpent(), 300*model.TxPerByte; math.Abs(got-want) > 1e-15 {
		t.Fatalf("MaxSpent = %v, want %v", got, want)
	}
}

func TestModelValidation(t *testing.T) {
	bad := DefaultModel()
	bad.TxPerByte = 0
	if _, err := NewMeter(2, bad); err == nil {
		t.Fatal("zero TxPerByte accepted")
	}
	ok := DefaultModel()
	ok.IdlePerSec = 0
	if _, err := NewMeter(2, ok); err != nil {
		t.Fatalf("zero idle rejected: %v", err)
	}
}

func TestEmptyMeter(t *testing.T) {
	m := meter(t, 1) // base station only
	m.ChargeTx(0, 100)
	if m.TotalSpent() != 0 || m.MaxSpent() != 0 {
		t.Fatal("empty meter reports consumption")
	}
}
