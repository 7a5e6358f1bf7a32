package rdma

import (
	"fmt"
	"time"
)

// Handler processes a two-sided RPC on the receiving node. Handlers run on
// the callee's goroutine budget; returning an error propagates it to the
// caller verbatim.
type Handler func(from NodeID, req []byte) ([]byte, error)

// RegisterHandler installs an RPC handler under the given method name.
// Re-registering a name replaces the previous handler.
func (e *Endpoint) RegisterHandler(method string, h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handlers[method] = h
}

// DeregisterHandler removes an RPC handler.
func (e *Endpoint) DeregisterHandler(method string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.handlers, method)
}

// Call performs a two-sided RPC round trip to the target node. Request and
// response bytes both pay the per-KB bandwidth cost.
func (e *Endpoint) Call(target NodeID, method string, req []byte) ([]byte, error) {
	if e.isDown() {
		return nil, fmt.Errorf("%w: %s (local endpoint down)", ErrUnreachable, e.id)
	}
	callee, err := e.fabric.lookup(target)
	if err != nil {
		return nil, err
	}
	callee.mu.RLock()
	h, ok := callee.handlers[method]
	callee.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrNoSuchHandler, method, target)
	}
	start := time.Now()
	e.fabric.delay(e.fabric.cfg.RPC/2, len(req))
	resp, err := h(e.id, req)
	if err != nil {
		return nil, err
	}
	// The callee may have been killed while the handler ran; the reply is
	// then lost from the caller's perspective.
	if callee.isDown() {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, target)
	}
	e.fabric.delay(e.fabric.cfg.RPC/2, len(resp))
	e.record(opRPC, len(req)+len(resp), start)
	return resp, nil
}

// CallTimeout is Call with a deadline. A handler that blocks past the
// deadline yields ErrUnreachable, modelling a hung peer; the handler's
// goroutine is abandoned (its late reply is dropped).
func (e *Endpoint) CallTimeout(target NodeID, method string, req []byte, timeout time.Duration) ([]byte, error) {
	type result struct {
		resp []byte
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := e.Call(target, method, req)
		ch <- result{resp, err}
	}()
	// Not time.After: under this module's go 1.22 line its timer stays live
	// until it fires, and the timeouts here are seconds on calls that take
	// microseconds, thousands of times a second.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-timer.C:
		return nil, fmt.Errorf("%w: %s (rpc %s timed out)", ErrUnreachable, target, method)
	}
}
