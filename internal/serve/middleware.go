package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"desc/internal/metrics"
)

// apiError carries an HTTP status with the error it reports. Handlers
// return one to select a status other than 500.
type apiError struct {
	status int
	err    error
}

func (e *apiError) Error() string { return e.err.Error() }
func (e *apiError) Unwrap() error { return e.err }

// errf builds an apiError. Every format string carries the "serve: "
// origin prefix the errprefix pass enforces.
func errf(status int, format string, args ...any) error {
	return &apiError{status: status, err: fmt.Errorf(format, args...)}
}

// errorResponse is the uniform JSON error envelope.
type errorResponse struct {
	Status int    `json:"status"`
	Error  string `json:"error"`
}

// writeError emits the JSON error envelope with the given status.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The encoder can only fail if the client went away.
	_ = json.NewEncoder(w).Encode(errorResponse{Status: status, Error: err.Error()})
}

// statusClientClosed is the nginx-conventional 499 for a request whose
// client went away mid-flight. It never goes on the wire — there is no
// client left to read it — and exists so aborts land in their own
// counter instead of masquerading as server timeouts or errors.
const statusClientClosed = 499

// statusOf maps a handler error to its HTTP status: explicit apiError
// statuses win, body-limit violations are 413, expired request deadlines
// are 504, client disconnects are 499, everything else is a 500.
func statusOf(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	if errors.Is(err, context.Canceled) {
		return statusClientClosed
	}
	return http.StatusInternalServerError
}

// route wraps a handler with the service middleware stack: per-route
// request/error counters and a latency histogram, the body-size limit,
// and a per-request deadline. Handlers signal failures by returning an
// error; streaming handlers that have already written a response body
// must report errors in-band and return nil.
func (s *Server) route(name string, deadline time.Duration, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	requests := s.reg.Counter("serve/http/" + name + "/requests")
	failures := s.reg.Counter("serve/http/" + name + "/errors")
	canceled := s.reg.Counter("serve/http/" + name + "/canceled")
	millis := s.reg.Histogram("serve/http/"+name+"/millis", metrics.ExpBuckets(1, 60_000))
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), deadline)
		defer cancel()
		r = r.WithContext(ctx)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		if err := h(w, r); err != nil {
			status := statusOf(err)
			// A dead context surfaced through another error path still
			// reports as its cause: 504 for the expired deadline, 499
			// for a client abort.
			if status == http.StatusInternalServerError && ctx.Err() != nil {
				status = statusOf(ctx.Err())
			}
			switch status {
			case statusClientClosed:
				// The client hung up: nothing to write, and the abort
				// is the client's doing, not a server error.
				canceled.Inc()
			case http.StatusGatewayTimeout:
				err = errf(status, "serve: %s: deadline exceeded after %s", name, deadline)
				writeError(w, status, err)
				failures.Inc()
			default:
				writeError(w, status, err)
				failures.Inc()
			}
		}
		millis.Observe(uint64(time.Since(start).Milliseconds()))
	}
}

// readJSON reads a JSON request body holding exactly one value and
// decodes it into dst, mapping the body limit to 413 and a malformed
// body, including anything but white space after the value, to 400. A
// dataLiteral in dst slices the body read here.
func readJSON(r *http.Request, dst any) error {
	var body bytes.Buffer
	_, err := body.ReadFrom(r.Body)
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return errf(http.StatusRequestEntityTooLarge,
			"serve: request body exceeds the %d-byte limit", mbe.Limit)
	case err != nil:
		return errf(http.StatusBadRequest, "serve: read request: %v", err)
	}
	if err := json.Unmarshal(body.Bytes(), dst); err != nil {
		var ae *apiError
		if errors.As(err, &ae) {
			return err
		}
		return errf(http.StatusBadRequest, "serve: decode request: %v", err)
	}
	return nil
}

// writeJSON emits v as the response body.
func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return fmt.Errorf("serve: encode response: %w", err)
	}
	return nil
}
