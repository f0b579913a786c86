package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"pos/internal/jsonenc"
	"pos/internal/queue"
	"pos/internal/telemetry"
)

// CampaignRequest submits one campaign to the controller's queue.
type CampaignRequest struct {
	User     string   `json:"user"`
	Name     string   `json:"name,omitempty"`
	Nodes    []string `json:"nodes"`
	Minutes  int      `json:"minutes"`
	Priority int      `json:"priority,omitempty"`
	ExpDir   string   `json:"exp_dir,omitempty"`
	// Spec is the campaign spec, passed to the queue's launcher as is.
	Spec string `json:"spec,omitempty"`
}

// CampaignView is one queued/running/finished campaign as the API reports it.
type CampaignView struct {
	ID           int       `json:"id"`
	User         string    `json:"user"`
	Name         string    `json:"name"`
	State        string    `json:"state"`
	Nodes        []string  `json:"nodes"`
	Minutes      int       `json:"minutes"`
	Priority     int       `json:"priority,omitempty"`
	Spec         string    `json:"spec,omitempty"`
	Position     int       `json:"position,omitempty"`
	AllocationID int       `json:"allocation_id,omitempty"`
	Submitted    time.Time `json:"submitted"`
	Admitted     time.Time `json:"admitted"`
	Finished     time.Time `json:"finished"`
	Error        string    `json:"error,omitempty"`
}

// AppendJSON appends the request as one JSON object, byte for byte what
// encoding/json writes for it (wire.Appender).
func (r *CampaignRequest) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"user":`...)
	dst = jsonenc.AppendString(dst, r.User)
	dst = jsonenc.AppendOmitEmpty(dst, `,"name":`, r.Name)
	dst = append(dst, `,"nodes":`...)
	dst = jsonenc.AppendStrings(dst, r.Nodes)
	dst = append(dst, `,"minutes":`...)
	dst = strconv.AppendInt(dst, int64(r.Minutes), 10)
	dst = jsonenc.AppendIntOmitEmpty(dst, `,"priority":`, int64(r.Priority))
	dst = jsonenc.AppendOmitEmpty(dst, `,"exp_dir":`, r.ExpDir)
	dst = jsonenc.AppendOmitEmpty(dst, `,"spec":`, r.Spec)
	return append(dst, '}')
}

// DecodeJSON reads one request from data into r, replacing what r held:
// the mirror of AppendJSON (wire.Decoder). It accepts a strict subset of
// what encoding/json accepts, and decodes that to the same CampaignRequest:
// keys spelt as AppendJSON spells them, each at most once, none null but
// nodes.
func (r *CampaignRequest) DecodeJSON(data []byte) error {
	*r = CampaignRequest{}
	d := jsonenc.NewDecoder(data)
	for d.Next() {
		switch string(d.Key()) {
		case "user":
			r.User = d.ReadString()
		case "name":
			r.Name = d.ReadString()
		case "nodes":
			if !d.Null() {
				r.Nodes = d.ReadStrings()
			}
		case "minutes":
			r.Minutes = int(d.ReadInt())
		case "priority":
			r.Priority = int(d.ReadInt())
		case "exp_dir":
			r.ExpDir = d.ReadString()
		case "spec":
			r.Spec = d.ReadString()
		default:
			d.Unknown()
		}
	}
	return d.Err()
}

// AppendJSON appends the view as one JSON object, byte for byte what
// encoding/json writes for it (wire.Appender). A view holding a time RFC 3339
// cannot carry appends nothing, as json.Encoder writes nothing for it, and
// the client's decode fails.
func (v *CampaignView) AppendJSON(dst []byte) []byte {
	n0 := len(dst)
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(v.ID), 10)
	dst = append(dst, `,"user":`...)
	dst = jsonenc.AppendString(dst, v.User)
	dst = append(dst, `,"name":`...)
	dst = jsonenc.AppendString(dst, v.Name)
	dst = append(dst, `,"state":`...)
	dst = jsonenc.AppendString(dst, v.State)
	dst = append(dst, `,"nodes":`...)
	dst = jsonenc.AppendStrings(dst, v.Nodes)
	dst = append(dst, `,"minutes":`...)
	dst = strconv.AppendInt(dst, int64(v.Minutes), 10)
	dst = jsonenc.AppendIntOmitEmpty(dst, `,"priority":`, int64(v.Priority))
	dst = jsonenc.AppendOmitEmpty(dst, `,"spec":`, v.Spec)
	dst = jsonenc.AppendIntOmitEmpty(dst, `,"position":`, int64(v.Position))
	dst = jsonenc.AppendIntOmitEmpty(dst, `,"allocation_id":`, int64(v.AllocationID))
	dst = append(dst, `,"submitted":`...)
	dst, errSubmitted := jsonenc.AppendTime(dst, v.Submitted)
	dst = append(dst, `,"admitted":`...)
	dst, errAdmitted := jsonenc.AppendTime(dst, v.Admitted)
	dst = append(dst, `,"finished":`...)
	dst, errFinished := jsonenc.AppendTime(dst, v.Finished)
	if errSubmitted != nil || errAdmitted != nil || errFinished != nil {
		return dst[:n0]
	}
	dst = jsonenc.AppendOmitEmpty(dst, `,"error":`, v.Error)
	return append(dst, '}')
}

// DecodeJSON reads one view from data into v, the mirror of AppendJSON
// (wire.Decoder), under the same rules as CampaignRequest.DecodeJSON.
func (v *CampaignView) DecodeJSON(data []byte) error {
	*v = CampaignView{}
	d := jsonenc.NewDecoder(data)
	for d.Next() {
		switch string(d.Key()) {
		case "id":
			v.ID = int(d.ReadInt())
		case "user":
			v.User = d.ReadString()
		case "name":
			v.Name = d.ReadString()
		case "state":
			v.State = d.ReadString()
		case "nodes":
			if !d.Null() {
				v.Nodes = d.ReadStrings()
			}
		case "minutes":
			v.Minutes = int(d.ReadInt())
		case "priority":
			v.Priority = int(d.ReadInt())
		case "spec":
			v.Spec = d.ReadString()
		case "position":
			v.Position = int(d.ReadInt())
		case "allocation_id":
			v.AllocationID = int(d.ReadInt())
		case "submitted":
			v.Submitted = d.ReadTime()
		case "admitted":
			v.Admitted = d.ReadTime()
		case "finished":
			v.Finished = d.ReadTime()
		case "error":
			v.Error = d.ReadString()
		default:
			d.Unknown()
		}
	}
	return d.Err()
}

// SetQueue attaches the campaign queue, enabling the campaign endpoints.
// Without one they answer 404, like the results endpoints without a store.
func (s *Server) SetQueue(q *queue.Controller) { s.queue = q }

func campaignView(st queue.Status) CampaignView {
	return CampaignView{
		ID:           st.ID,
		User:         st.User,
		Name:         st.Name,
		State:        string(st.State),
		Nodes:        st.Nodes,
		Minutes:      st.Minutes,
		Priority:     st.Priority,
		Spec:         st.Spec,
		Position:     st.Position,
		AllocationID: st.AllocationID,
		Submitted:    st.Submitted,
		Admitted:     st.Admitted,
		Finished:     st.Finished,
		Error:        st.Error,
	}
}

func (s *Server) submitCampaign(w http.ResponseWriter, r *http.Request) {
	if s.queue == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: no campaign queue attached"))
		return
	}
	var req CampaignRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.queue.Submit(queue.Submission{
		User:     req.User,
		Name:     req.Name,
		Nodes:    req.Nodes,
		Minutes:  req.Minutes,
		Priority: req.Priority,
		ExpDir:   req.ExpDir,
		Spec:     req.Spec,
		// The submitter's identity, not any server-side request span: the
		// campaign's trace must stitch under the posctl invocation that
		// submitted it, however long it waits in the queue.
		TraceParent: telemetry.PendingTraceParent(r.Context()),
	})
	if err != nil {
		if errors.Is(err, queue.ErrClosed) {
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	view := campaignView(st)
	writeJSON(w, http.StatusCreated, &view)
}

func (s *Server) listCampaigns(w http.ResponseWriter, r *http.Request) {
	if s.queue == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: no campaign queue attached"))
		return
	}
	all := s.queue.List()
	out := make([]CampaignView, 0, len(all))
	for _, st := range all {
		out = append(out, campaignView(st))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) getCampaign(w http.ResponseWriter, r *http.Request) {
	if s.queue == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: no campaign queue attached"))
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("api: bad campaign id %q", r.PathValue("id")))
		return
	}
	st, err := s.queue.Get(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	view := campaignView(st)
	writeJSON(w, http.StatusOK, &view)
}

func (s *Server) cancelCampaign(w http.ResponseWriter, r *http.Request) {
	if s.queue == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: no campaign queue attached"))
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("api: bad campaign id %q", r.PathValue("id")))
		return
	}
	st, err := s.queue.Cancel(r.URL.Query().Get("user"), id)
	if err != nil {
		switch {
		case errors.Is(err, queue.ErrNotFound):
			writeErr(w, http.StatusNotFound, err)
		case errors.Is(err, queue.ErrWrongUser):
			writeErr(w, http.StatusForbidden, err)
		case errors.Is(err, queue.ErrFinished):
			writeErr(w, http.StatusConflict, err)
		default:
			writeErr(w, http.StatusInternalServerError, err)
		}
		return
	}
	view := campaignView(st)
	writeJSON(w, http.StatusOK, &view)
}

// SubmitCampaign queues a campaign and returns its assigned status.
func (c *Client) SubmitCampaign(req CampaignRequest) (CampaignView, error) {
	return c.SubmitCampaignContext(context.Background(), req)
}

// SubmitCampaignContext queues a campaign under the caller's context. When
// the context carries an active span (or a pending traceparent), the
// submission inherits that trace identity end to end: queue wait, admission,
// and the campaign run all stitch under the submitter's trace.
func (c *Client) SubmitCampaignContext(ctx context.Context, req CampaignRequest) (CampaignView, error) {
	var out CampaignView
	err := c.doCtx(ctx, http.MethodPost, "/api/v1/campaigns", &req, &out, 0)
	return out, err
}

// Campaigns returns the full queue state, submission order.
func (c *Client) Campaigns() ([]CampaignView, error) {
	var out []CampaignView
	err := c.do(http.MethodGet, "/api/v1/campaigns", nil, &out)
	return out, err
}

// Campaign fetches one campaign's status.
func (c *Client) Campaign(id int) (CampaignView, error) {
	var out CampaignView
	err := c.do(http.MethodGet, "/api/v1/campaigns/"+strconv.Itoa(id), nil, &out)
	return out, err
}

// CancelCampaign withdraws a queued campaign or preempts a running one.
func (c *Client) CancelCampaign(user string, id int) (CampaignView, error) {
	var out CampaignView
	err := c.do(http.MethodDelete,
		fmt.Sprintf("/api/v1/campaigns/%d?user=%s", id, user), nil, &out)
	return out, err
}
