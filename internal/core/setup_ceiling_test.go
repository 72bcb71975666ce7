//go:build !race

package core

// TestSetupAllocsPerConn's one-connection byte ceilings under plain go
// test. The race detector's build has read 16 B more; it reads the same
// since the event manager holds its lock inline
// (setup_ceiling_race_test.go).
const (
	udpSetupMaxBytes = 27984
	tcpSetupMaxBytes = 33056
)
