package server

// Exports for the contract battery (contract_test.go), an external test
// package so that it can import internal/cluster too.

// SetTestHook installs the hook the agg and scan handlers run after
// admission.
func (s *Server) SetTestHook(f func()) { s.testHook = f }

var (
	Dataset     = dataset
	WaitForLine = waitForLine
)

type SyncBuffer = syncBuffer
