package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

// healthAnswer serves one fixed /healthz answer.
func healthAnswer(t *testing.T, status int, body string) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write([]byte(body))
	}))
	t.Cleanup(ts.Close)
	return New(ts.URL)
}

// TestHealthDrainingOnlyOn503: only a 503 whose document says
// "draining" is ErrDraining; a proxy's 502 carrying the error envelope
// decodes to its own code.
func TestHealthDrainingOnlyOn503(t *testing.T) {
	ctx := context.Background()

	c := healthAnswer(t, http.StatusServiceUnavailable, `{"status":"draining","workers":2}`)
	h, err := c.Health(ctx)
	if !errors.Is(err, ErrDraining) || h.Status != "draining" || h.Workers != 2 {
		t.Fatalf("503 draining: %+v, %v; want the document and ErrDraining", h, err)
	}

	c = healthAnswer(t, http.StatusBadGateway, `{"error":{"code":"internal","message":"upstream failed"}}`)
	_, err = c.Health(ctx)
	var apiErr *APIError
	if !errors.Is(err, ErrInternal) || errors.Is(err, ErrDraining) || !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("502 envelope: %v; want ErrInternal with status 502", err)
	}
	if apiErr.Message != "upstream failed" {
		t.Fatalf("502 envelope message = %q", apiErr.Message)
	}

	c = healthAnswer(t, http.StatusServiceUnavailable, `{"error":{"code":"queue_full","message":"busy"}}`)
	if _, err := c.Health(ctx); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("503 envelope: %v; want ErrQueueFull", err)
	}
}
