//go:build race

package core

// TestSetupAllocsPerConn's one-connection byte ceilings under the race
// detector. Its build has read 16 B more than plain go test; it reads
// the same since the event manager holds its lock inline
// (setup_ceiling_test.go).
const (
	udpSetupMaxBytes = 27984
	tcpSetupMaxBytes = 33056
)
