package wire

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"
)

// TestWorkerRejectsOtherProtocolVersion plays a coordinator that speaks the
// next cluster protocol version: the worker must refuse the trace-context
// frame by name instead of guessing at the frame layouts that follow.
func TestWorkerRejectsOtherProtocolVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	werr := make(chan error, 1)
	go func() { werr <- runWorker("0@" + ln.Addr().String()) }()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(wallDeadline(setupTimeout))
	kind, payload, err := NewReader(conn).ReadFrame()
	if err != nil || kind != frameHello || len(payload) != 4 {
		t.Fatalf("worker hello: kind %#02x, %d bytes, err %v", kind, len(payload), err)
	}
	other := clusterProtocolVersion + 1
	tctx := binary.BigEndian.AppendUint16(nil, uint16(other))
	tctx = binary.BigEndian.AppendUint64(tctx, 1)
	tctx = append(tctx, 0)
	if err := writeFrame(conn, frameTrace, tctx); err != nil {
		t.Fatal(err)
	}
	err = <-werr
	want := fmt.Sprintf("coordinator speaks cluster protocol v%d, this worker speaks v%d", other, clusterProtocolVersion)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("runWorker error = %v, want %q", err, want)
	}
}
