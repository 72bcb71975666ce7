package cost

import "testing"

func TestNewModelScalesCPUWork(t *testing.T) {
	m100 := NewModel(Challenge100)
	m150 := NewModel(Challenge150)
	if m150.Stack.TCPRecvFast >= m100.Stack.TCPRecvFast {
		t.Errorf("150MHz TCP work (%d) not faster than 100MHz (%d)",
			m150.Stack.TCPRecvFast, m100.Stack.TCPRecvFast)
	}
	if m150.Stack.ChecksumByte >= m100.Stack.ChecksumByte {
		t.Errorf("150MHz checksum rate (%v) not faster than 100MHz (%v)",
			m150.Stack.ChecksumByte, m100.Stack.ChecksumByte)
	}
}

func TestPowerSeriesIsSlowCPUSyncBus(t *testing.T) {
	p := NewModel(PowerSeries33)
	c := NewModel(Challenge100)
	if p.Stack.TCPRecvFast <= c.Stack.TCPRecvFast {
		t.Error("R3000 CPU work should be slower than R4400")
	}
	if !p.Sync.SyncBus {
		t.Error("Power Series must use the sync bus")
	}
	if c.Sync.SyncBus {
		t.Error("Challenge must synchronize through memory")
	}
}

func TestChecksumAnchor32MBps(t *testing.T) {
	// Section 3.2: each 100 MHz CPU checksums at 32 MB/s when missing
	// the cache, i.e. ~31 ns per byte.
	m := NewModel(Challenge100)
	nsPerMB := Bytes(m.Stack.ChecksumByte, 1<<20)
	mbPerSec := 1e9 / float64(nsPerMB)
	if mbPerSec < 28 || mbPerSec > 36 {
		t.Errorf("checksum bandwidth = %.1f MB/s, want ~32", mbPerSec)
	}
}

func TestUncontendedLockPairNearPaperNumbers(t *testing.T) {
	// Section 4.1: mutex lock/unlock 0.7 us, MCS 1.5 us (uncontended).
	m := NewModel(Challenge100)
	mutexPair := m.Sync.LockProbe + m.Sync.LockEnter + m.Sync.LockExit
	if mutexPair < 500 || mutexPair > 1000 {
		t.Errorf("mutex pair = %d ns, want ~700", mutexPair)
	}
	mcsPair := m.Sync.MCSSwap + m.Sync.LockEnter + m.Sync.LockExit
	if mcsPair < 1100 || mcsPair > 1900 {
		t.Errorf("MCS pair = %d ns, want ~1500", mcsPair)
	}
}

func TestBytes(t *testing.T) {
	if Bytes(31.0, 0) != 0 {
		t.Error("Bytes(_, 0) != 0")
	}
	if Bytes(31.0, -5) != 0 {
		t.Error("Bytes(_, negative) != 0")
	}
	if got := Bytes(2.0, 100); got != 200 {
		t.Errorf("Bytes(2,100) = %d, want 200", got)
	}
}

func TestScaleNeverProducesZero(t *testing.T) {
	m := NewModel(Machine{Name: "turbo", CPU: 1e9, Mem: 1e9})
	if m.Stack.MsgOp < 1 {
		t.Error("scaled cost fell below 1 ns")
	}
}

func TestModelDefaults(t *testing.T) {
	m := NewModel(Challenge100)
	if m.JitterFrac <= 0 || m.JitterFrac > 0.5 {
		t.Errorf("JitterFrac = %v out of sane range", m.JitterFrac)
	}
	if len(Machines) != 3 {
		t.Errorf("Machines = %d entries, want 3", len(Machines))
	}
}
