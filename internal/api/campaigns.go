package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

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
	writeJSON(w, http.StatusCreated, campaignView(st))
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
	writeJSON(w, http.StatusOK, campaignView(st))
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
	writeJSON(w, http.StatusOK, campaignView(st))
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
	err := c.doCtx(ctx, http.MethodPost, "/api/v1/campaigns", req, &out, 0)
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
