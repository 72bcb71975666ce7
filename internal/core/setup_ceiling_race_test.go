//go:build race

package core

// TestSetupAllocsPerConn's one-connection byte ceilings under the race
// detector, whose build reads 16 B more than plain go test
// (setup_ceiling_test.go).
const (
	udpSetupMaxBytes = 41824
	tcpSetupMaxBytes = 46904
)
