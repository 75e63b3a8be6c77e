package cloud

import (
	"context"
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/trace"
)

// DefaultStreamBatchSize is how many observations StreamObservations packs
// into one stream batch when the caller passes 0.
const DefaultStreamBatchSize = 64

// StreamObservations ships observations to the cloud over the streaming
// ingest endpoint (POST /api/v1/observations/stream): one long-lived request
// whose body is a sequence of batches, each appended WAL-durably and fed to
// the online event detector as it arrives — subscribers see the resulting
// place events while the device is still uploading.
//
// Like DiscoverPlaces, the call is cursor-aware: observations the server
// already acknowledged are skipped client-side, so handing it the full trace
// streams only the new tail (and an up-to-date client streams nothing,
// getting back the current position). On success the acknowledged cursor is
// stored, so a later DiscoverPlaces delta-syncs instead of re-uploading.
//
// The stream appends state as it goes, so the request is not retried by the
// retry policy; a failed stream is resumed by calling again (the cursor —
// refreshed by the returned StreamResult — restarts from what was durably
// appended). Routing, the 421 replay and the 401 token recovery are those of
// every other call: each precedes ingest.
func (c *Client) StreamObservations(ctx context.Context, obs []trace.GSMObservation, batchSize int) (StreamResult, error) {
	if batchSize <= 0 {
		batchSize = DefaultStreamBatchSize
	}
	if cursor, _, delta := c.traceCursor(obs); delta {
		obs = obs[cursor:]
	}
	body := bodyWriter{contentType: "application/json", write: func(w io.Writer) error { return writeObsBatches(w, obs, batchSize) }}
	if c.wire == WireBinary {
		body = bodyWriter{contentType: ContentTypeBinary, write: func(w io.Writer) error { return writeObsFrames(w, obs, batchSize) }}
	}
	var res StreamResult
	if err := c.authedCall(ctx, http.MethodPost, PathObservationsStream, nil, body, &res, false); err != nil {
		return StreamResult{}, err
	}
	c.storeCursor(res.TraceLen, res.TraceHash)
	return res, nil
}

// writeObsBatches emits the JSON observation stream: one StreamBatch
// document per batch.
func writeObsBatches(w io.Writer, obs []trace.GSMObservation, batchSize int) error {
	enc := json.NewEncoder(w)
	for start := 0; start < len(obs); start += batchSize {
		if err := enc.Encode(StreamBatch{Observations: obs[start:min(start+batchSize, len(obs))]}); err != nil {
			return err
		}
	}
	return nil
}

// writeObsFrames emits the binary observation stream: the two-byte
// version/kind header, then the observation frames.
func writeObsFrames(w io.Writer, obs []trace.GSMObservation, batchSize int) error {
	if _, err := w.Write([]byte{wireVersion, wireKindObsStream}); err != nil {
		return err
	}
	return writeFrames(w, obs, batchSize)
}

// writeDiscoverFrames emits a binary discover request: the fixed header
// (version, kind, flags, cursor, prefix hash), then the observation frames.
func writeDiscoverFrames(w io.Writer, dreq *DiscoverPlacesRequest) error {
	var e trace.BinaryEncoder
	e.Byte(wireVersion)
	e.Byte(wireKindDiscoverRequest)
	var flags byte
	if dreq.Delta {
		flags |= 1
	}
	e.Byte(flags)
	e.Uvarint(uint64(dreq.Cursor))
	e.Fixed64(dreq.PrefixHash)
	if _, err := w.Write(e.Buf); err != nil {
		return err
	}
	return writeFrames(w, dreq.Observations, wireFrameObs)
}

// writeFrames emits one CRC frame per batch of observations and the
// explicit end marker, so the server can tell a deliberate close from a
// dropped link.
func writeFrames(w io.Writer, obs []trace.GSMObservation, batchSize int) error {
	var e trace.BinaryEncoder
	var frame []byte
	for start := 0; start < len(obs); start += batchSize {
		e.Reset(e.Buf)
		trace.AppendObservations(&e, obs[start:min(start+batchSize, len(obs))])
		frame = appendWireFrame(frame[:0], e.Buf)
		if _, err := w.Write(frame); err != nil {
			return err
		}
	}
	_, err := w.Write(wireFrameEnd)
	return err
}
