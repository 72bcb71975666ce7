//go:build !race

package core

// TestSetupAllocsPerConn's one-connection byte ceilings under plain go
// test; the race detector's build reads 16 B more
// (setup_ceiling_race_test.go).
const (
	udpSetupMaxBytes = 41808
	tcpSetupMaxBytes = 46888
)
