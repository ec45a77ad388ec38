package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

// clients is the fixed closed-loop client count: simulation steps and
// visualisation tools each wait for their reply. The sandbox has 2 cores.
const clients = 2

// httpClient is the generator's one HTTP client: two keep-alive connections,
// no compression. The timeout turns a hung server into failed operations
// instead of a hung run.
var httpClient = &http.Client{
	Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	},
	Timeout: 30 * time.Second,
}

// fetch issues one request and reads the whole reply into buf (reset first).
// The returned duration is what the client waited: request sent to last body
// byte read. A transport error or a non-2xx status is an error.
func fetch(method, url string, body []byte, buf *bytes.Buffer) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	buf.Reset()
	start := time.Now()
	resp, err := httpClient.Do(req)
	if err != nil {
		return time.Since(start), err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return d, fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, buf.Bytes())
	}
	return d, nil
}

var degradedMark = []byte(`"degraded":true`)

// degraded reports whether a reply body marks a partial answer. Both servers
// omit the field on complete answers.
func degraded(body []byte) bool { return bytes.Contains(body, degradedMark) }

// itemJSON, queryReply, joinReply and updateReply mirror the servers' wire
// shapes (the fields the benchmark checks).
type itemJSON struct {
	ID  int64      `json:"id"`
	Min [3]float64 `json:"min"`
	Max [3]float64 `json:"max"`
}

func (ij itemJSON) item() index.Item {
	return index.Item{ID: ij.ID, Box: geom.AABB{
		Min: geom.V(ij.Min[0], ij.Min[1], ij.Min[2]),
		Max: geom.V(ij.Max[0], ij.Max[1], ij.Max[2]),
	}}
}

type queryReply struct {
	Epoch uint64     `json:"epoch"`
	Count int        `json:"count"`
	Items []itemJSON `json:"items"`
}

type joinReply struct {
	Count int        `json:"count"`
	Pairs [][2]int64 `json:"pairs"`
}

type updateReply struct {
	Epoch   uint64 `json:"epoch"`
	Applied int    `json:"applied"`
}

func decodeQueryReply(body []byte) (queryReply, error) {
	var r queryReply
	if err := json.Unmarshal(body, &r); err != nil {
		return r, err
	}
	if r.Count != len(r.Items) {
		return r, fmt.Errorf("reply count %d but %d items", r.Count, len(r.Items))
	}
	return r, nil
}

// loadServer loads the whole dataset with one POST /v1/update.
func loadServer(srv *server, items []index.Item) error {
	var buf bytes.Buffer
	_, err := fetch(http.MethodPost, srv.base+"/v1/update", updateBody(items), &buf)
	return err
}
