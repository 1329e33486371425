package harness

// Shared plumbing for the experiments that drive a live server over
// loopback HTTP (X3, X4, X5, X7, X11): one listen/serve/shutdown helper and
// one JSON request helper.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"pitract/internal/server"
)

// liveServer serves srv on a loopback listener and returns its base URL, a
// client sized for Parallelism() concurrent workers, and stop, which drops
// the client's idle connections, drains the server, and reports the first
// shutdown or serve error.
func liveServer(srv *server.Server) (base string, client *http.Client, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, fmt.Errorf("listen: %w", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: Parallelism() + 1}}
	stop = func() error {
		client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-serveErr; err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		return nil
	}
	return "http://" + ln.Addr().String(), client, stop, nil
}

// reply is what one JSON request came back with, beyond the decoded body.
type reply struct {
	code       int
	latency    time.Duration
	retryAfter bool   // a Retry-After header rode along
	errBody    string // the server's error message on a non-200
}

// sendJSON sends v as a JSON request body and decodes a 200 response into
// out (ignored when nil); any other status leaves the server's error
// message in the reply instead.
func sendJSON(client *http.Client, method, url string, v, out interface{}) (reply, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return reply{}, err
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	rep := reply{code: resp.StatusCode, latency: time.Since(start),
		retryAfter: resp.Header.Get("Retry-After") != ""}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e) // best effort: the status already says it failed
		rep.errBody = e.Error
		return rep, nil
	}
	if out == nil {
		return rep, nil
	}
	return rep, json.NewDecoder(resp.Body).Decode(out)
}

// requestOK is sendJSON for callers that accept only success: non-200
// statuses become errors carrying the server's message.
func requestOK(client *http.Client, method, url string, v, out interface{}) error {
	rep, err := sendJSON(client, method, url, v, out)
	if err != nil {
		return err
	}
	if rep.code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", url, rep.code, rep.errBody)
	}
	return nil
}
