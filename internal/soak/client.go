package soak

// Control-protocol client. Each harness subsystem (prober, publisher,
// scenario adapter, supervisor) owns its own Client: the protocol is
// strictly request/response over one connection, so sharing a client
// between goroutines would need a mutex held across network IO — exactly
// what the repo's lockio contract forbids. Dial one per goroutine instead.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// ctlResp is the single JSON response shape for every control command;
// unused fields are omitted on the wire.
type ctlResp struct {
	OK      bool                   `json:"ok"`
	Err     string                 `json:"err,omitempty"`
	Status  map[string]TopicStatus `json:"status,omitempty"`
	Ack     *PubAck                `json:"ack,omitempty"`
	Entries []LedgerEntry          `json:"entries,omitempty"`
}

// errResp builds a failure response.
func errResp(msg string) ctlResp { return ctlResp{Err: msg} }

// writeResp marshals one response line.
func writeResp(w io.Writer, r ctlResp) error {
	buf, err := json.Marshal(r)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// lineReader reads newline-terminated protocol lines with a generous size
// cap (ledger responses for long soaks run to megabytes).
type lineReader struct{ r *bufio.Reader }

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{r: bufio.NewReaderSize(r, 64<<10)}
}

func (l *lineReader) next() (string, error) {
	var sb strings.Builder
	for {
		chunk, err := l.r.ReadString('\n')
		sb.WriteString(chunk)
		if err != nil {
			return sb.String(), err
		}
		if strings.HasSuffix(chunk, "\n") {
			return sb.String(), nil
		}
	}
}

// Client speaks the control protocol to one Agent. NOT safe for concurrent
// use — each goroutine dials its own.
type Client struct {
	conn    net.Conn
	rd      *lineReader
	timeout time.Duration
}

// DialControl connects to an agent's control address. timeout bounds the
// dial and every subsequent request/response round trip (0 means 5s).
func DialControl(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("soak: dial control %s: %w", addr, err)
	}
	return &Client{conn: conn, rd: newLineReader(conn), timeout: timeout}, nil
}

// Close closes the control connection.
func (c *Client) Close() error { return c.conn.Close() }

// do runs one request/response round trip under the client's deadline.
func (c *Client) do(cmd string) (*ctlResp, error) {
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return nil, err
	}
	if _, err := io.WriteString(c.conn, cmd+"\n"); err != nil {
		return nil, fmt.Errorf("soak: control write: %w", err)
	}
	line, err := c.rd.next()
	if err != nil {
		return nil, fmt.Errorf("soak: control read: %w", err)
	}
	var r ctlResp
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		return nil, fmt.Errorf("soak: control decode: %w", err)
	}
	if !r.OK {
		return nil, errors.New("soak: control: " + r.Err)
	}
	return &r, nil
}

// Status fetches every topic overlay's health.
func (c *Client) Status() (map[string]TopicStatus, error) {
	r, err := c.do("status")
	if err != nil {
		return nil, err
	}
	return r.Status, nil
}

// Publish originates body on topic from the remote node and returns the
// acknowledged message identity and publish timestamp. body must not
// contain newlines.
func (c *Client) Publish(topic, body string) (PubAck, error) {
	r, err := c.do("publish " + topic + " " + body)
	if err != nil {
		return PubAck{}, err
	}
	if r.Ack == nil {
		return PubAck{}, errors.New("soak: publish: no ack in response")
	}
	return *r.Ack, nil
}

// Ledger fetches one topic's delivery ledger.
func (c *Client) Ledger(topic string) ([]LedgerEntry, error) {
	r, err := c.do("ledger " + topic)
	if err != nil {
		return nil, err
	}
	return r.Entries, nil
}

// Block black-holes frames from the remote node to the given addresses.
func (c *Client) Block(addrs ...string) error {
	_, err := c.do("block " + strings.Join(addrs, " "))
	return err
}

// Unblock restores connectivity to the given addresses.
func (c *Client) Unblock(addrs ...string) error {
	_, err := c.do("unblock " + strings.Join(addrs, " "))
	return err
}

// Heal removes every active partition on the remote node.
func (c *Client) Heal() error {
	_, err := c.do("heal")
	return err
}

// SetLoss programs the remote node's per-frame drop probability.
func (c *Client) SetLoss(rate float64) error {
	_, err := c.do("loss " + strconv.FormatFloat(rate, 'g', -1, 64))
	return err
}

// SetParam sets one config-engine key on the remote node. The value is
// validated remotely; a rejection comes back as an error and leaves the
// remote engine at its prior version.
func (c *Client) SetParam(key, value string) error {
	_, err := c.do("set " + key + " " + value)
	return err
}

// Wedge blocks the remote node's delivery path (a simulated stuck
// consumer) until Unwedge.
func (c *Client) Wedge() error {
	_, err := c.do("wedge")
	return err
}

// Unwedge releases a wedged delivery path.
func (c *Client) Unwedge() error {
	_, err := c.do("unwedge")
	return err
}

// Quit asks the remote node to shut down cleanly.
func (c *Client) Quit() error {
	_, err := c.do("quit")
	return err
}
