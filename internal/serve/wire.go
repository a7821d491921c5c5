package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"

	"gsgcn/internal/wire"
)

// This file is the serving plane's binary-transport integration: the
// HTTP content negotiation that lets any query endpoint answer with a
// wire frame instead of JSON, the wire-native query paths on Router
// (same admission gate, deadline bound and micro-batcher as the HTTP
// handlers), and the registry's persistent-connection TCP
// listener. Both transports answer from identical result structs, so
// a decoded wire answer is bit-identical to the JSON answer
// (test-enforced in pkg/client).

// wantsWire reports whether the request negotiated the binary wire
// encoding for its response body.
func wantsWire(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.ContentType)
}

// writeWire emits one wire frame as the HTTP response body. Encode can
// only fail on a string field overflowing its u16 length prefix, which
// wireError already truncates away, so the fallback is unreachable in
// practice.
func writeWire(w http.ResponseWriter, status int, m wire.Message) {
	frame, err := wire.Encode(m)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(status)
	_, _ = w.Write(frame)
}

// wireError builds an error frame, truncating the message to the u16
// string cap so encoding cannot fail.
func wireError(status int, reason, msg string) *wire.ErrorResponse {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	return &wire.ErrorResponse{Status: status, Reason: reason, Message: msg}
}

// wireErrFor maps a handler error to its wire frame: the same status,
// reason and message the JSON envelope carries, so both transports
// fail identically.
func wireErrFor(err error) *wire.ErrorResponse {
	return wireError(statusFor(err), reasonFor(err), err.Error())
}

// writeQueryErr writes a query error in the negotiated encoding.
func writeQueryErr(w http.ResponseWriter, r *http.Request, err error) {
	if wantsWire(r) {
		writeWire(w, statusFor(err), wireErrFor(err))
		return
	}
	writeErr(w, err)
}

func wireEmbedResp(res *EmbedResult) *wire.EmbedResponse {
	return &wire.EmbedResponse{
		Version:      res.Version,
		ModelVersion: res.ModelVersion,
		Dim:          res.Dim,
		IDs:          res.IDs,
		Vectors:      res.Vectors,
	}
}

func wirePredictResp(res *PredictResult) *wire.PredictResponse {
	return &wire.PredictResponse{
		Version:      res.Version,
		ModelVersion: res.ModelVersion,
		Classes:      res.Classes,
		MultiLabel:   res.MultiLabel,
		IDs:          res.IDs,
		Labels:       res.Labels,
		Probs:        res.Probs,
	}
}

func wireTopKResp(res *TopKResult) *wire.TopKResponse {
	mode, _ := wire.ModeByte(res.Mode)
	nbs := make([]wire.Neighbor, len(res.Neighbors))
	for i, n := range res.Neighbors {
		nbs[i] = wire.Neighbor{ID: n.ID, Score: n.Score}
	}
	return &wire.TopKResponse{
		Version:      res.Version,
		ModelVersion: res.ModelVersion,
		ID:           res.ID,
		K:            res.K,
		Mode:         mode,
		Ef:           res.Ef,
		Degraded:     res.Degraded,
		Neighbors:    nbs,
	}
}

// writeEmbedRes / writePredictRes / writeTopKRes write a successful
// query answer in the negotiated encoding. Only the query endpoints
// negotiate — control-plane bodies (health, reload, listings) stay
// JSON-only.
func writeEmbedRes(w http.ResponseWriter, r *http.Request, res *EmbedResult) {
	if wantsWire(r) {
		writeWire(w, http.StatusOK, wireEmbedResp(res))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func writePredictRes(w http.ResponseWriter, r *http.Request, res *PredictResult) {
	if wantsWire(r) {
		writeWire(w, http.StatusOK, wirePredictResp(res))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func writeTopKRes(w http.ResponseWriter, r *http.Request, res *TopKResult) {
	if wantsWire(r) {
		writeWire(w, http.StatusOK, wireTopKResp(res))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// wireEmbed answers an embed request arriving over the binary
// transport: the same admission gate, id-count validation, deadline
// bound and routing the HTTP handler uses, minus the HTTP surface
// parsing. Concurrent wire requests coalesce into micro-batches
// exactly like concurrent HTTP requests.
func (rt *Router) wireEmbed(ctx context.Context, ids []int) (*EmbedResult, error) {
	release, err := rt.gate.admit()
	if err != nil {
		return nil, err
	}
	defer release()
	if err := checkQueryIDs(ids); err != nil {
		return nil, err
	}
	ctx, cancel := boundCtx(ctx, rt.opts.Deadline)
	defer cancel()
	res, _, _, err := rt.embed(ctx, ids)
	return res, err
}

// wirePredict is wireEmbed for predictions.
func (rt *Router) wirePredict(ctx context.Context, ids []int) (*PredictResult, error) {
	release, err := rt.gate.admit()
	if err != nil {
		return nil, err
	}
	defer release()
	if err := checkQueryIDs(ids); err != nil {
		return nil, err
	}
	ctx, cancel := boundCtx(ctx, rt.opts.Deadline)
	defer cancel()
	res, _, _, err := rt.predict(ctx, ids)
	return res, err
}

// wireTopK answers a top-K request arriving over the binary transport,
// applying the same defaulting/validation rules as the HTTP query
// parser (resolveTopK) so both transports reject identical requests
// with identical error text.
func (rt *Router) wireTopK(q topkQuery, kSet bool) (*TopKResult, error) {
	release, err := rt.gate.admit()
	if err != nil {
		return nil, err
	}
	defer release()
	tq, err := resolveTopK(q, kSet, rt.ds.G.NumVertices(), rt.opts.ANN)
	if err != nil {
		return nil, err
	}
	return rt.TopKWith(tq.id, tq.k, tq.mode, tq.ef)
}

// ServeWire accepts persistent wire-protocol connections on l and
// serves framed requests until the listener closes (its error is
// returned). Each connection carries pipelined frames: requests
// dispatch concurrently into the same admission/deadline/batching
// machinery as HTTP, responses return in request order.
func (r *Registry) ServeWire(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go r.serveWireConn(conn)
	}
}

// serveWireConn runs one persistent connection. The reader loop
// enqueues one response slot per decoded frame and answers each frame
// on its own goroutine — so pipelined requests coalesce in the
// micro-batcher — while the writer goroutine drains slots strictly in
// request order, flushing when the pipeline runs dry. A malformed
// frame answers with an error frame and closes the connection: framing
// is unrecoverable once the stream is off by a byte.
func (r *Registry) serveWireConn(conn net.Conn) {
	defer conn.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	slots := make(chan chan wire.Message, 128)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var werr error
		for slot := range slots {
			m := <-slot
			if werr != nil {
				continue // peer gone; keep draining so answerers never block
			}
			if werr = wire.WriteMessage(bw, m); werr == nil && len(slots) == 0 {
				werr = bw.Flush()
			}
		}
		if werr == nil {
			_ = bw.Flush()
		}
	}()
	for {
		msg, err := wire.ReadMessage(br)
		if err != nil {
			if err != io.EOF {
				slot := make(chan wire.Message, 1)
				slot <- wireError(http.StatusBadRequest, "", err.Error())
				slots <- slot
			}
			break
		}
		slot := make(chan wire.Message, 1)
		slots <- slot
		go func(msg wire.Message) { slot <- r.answerWire(ctx, msg) }(msg)
	}
	close(slots)
	<-done
}

// answerWire dispatches one decoded request frame to its model and
// converts the answer (or error) back to a frame. Every frame counts
// toward gsgcn_requests_total{transport="wire"} under the model it
// addressed (the registry's own label for unresolvable frames).
func (r *Registry) answerWire(ctx context.Context, msg wire.Message) wire.Message {
	var model string
	switch m := msg.(type) {
	case *wire.EmbedRequest:
		model = m.Model
	case *wire.PredictRequest:
		model = m.Model
	case *wire.TopKRequest:
		model = m.Model
	default:
		r.inst.countWire()
		return wireError(http.StatusBadRequest, "",
			fmt.Sprintf("serve: frame type 0x%02x is not a request", byte(msg.FrameType())))
	}
	srv, errResp := r.wireModel(model)
	if errResp != nil {
		r.inst.countWire()
		return errResp
	}
	srv.inst.countWire()
	switch m := msg.(type) {
	case *wire.EmbedRequest:
		res, err := srv.wireEmbed(ctx, m.IDs)
		if err != nil {
			return wireErrFor(err)
		}
		return wireEmbedResp(res)
	case *wire.PredictRequest:
		res, err := srv.wirePredict(ctx, m.IDs)
		if err != nil {
			return wireErrFor(err)
		}
		return wirePredictResp(res)
	case *wire.TopKRequest:
		mode, ok := wire.ModeString(m.Mode)
		if !ok {
			// Surface the unknown byte through the same bad-mode error
			// the HTTP parser emits for an unknown mode string.
			mode = fmt.Sprintf("0x%02x", m.Mode)
		}
		res, err := srv.wireTopK(topkQuery{id: m.ID, k: m.K, mode: mode, ef: m.Ef}, m.K != 0)
		if err != nil {
			return wireErrFor(err)
		}
		return wireTopKResp(res)
	}
	return nil // unreachable: the first switch rejected non-requests
}

// wireModel resolves a request frame's model name exactly as HTTP
// dispatch does: empty addresses the default model, with the same
// error statuses and messages for unknown names and an empty registry.
func (r *Registry) wireModel(name string) (*Router, *wire.ErrorResponse) {
	if name == "" {
		def := r.Default()
		if def == "" {
			return nil, wireError(http.StatusServiceUnavailable, "", "serve: no models registered")
		}
		srv, _ := r.Get(def)
		return srv, nil
	}
	srv, ok := r.Get(name)
	if !ok {
		return nil, wireError(http.StatusNotFound, "", fmt.Sprintf("serve: unknown model %q", name))
	}
	return srv, nil
}
