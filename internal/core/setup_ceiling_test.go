//go:build !race

package core

// TestSetupAllocsPerConn's one-connection byte ceilings under plain go
// test; the race detector's build reads 208 B more
// (setup_ceiling_race_test.go).
const (
	udpSetupMaxBytes = 107512
	tcpSetupMaxBytes = 112592
)
