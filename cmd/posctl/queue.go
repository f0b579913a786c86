package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pos/internal/api"
	"pos/internal/casestudy"
	"pos/internal/eventlog"
	"pos/internal/expfile"
	"pos/internal/queue"
	"pos/internal/results"
	"pos/internal/telemetry"
)

// The queue subcommands drive the controller's multi-tenant campaign queue
// over the HTTP API: submit enqueues a campaign, queue shows live state,
// cancel withdraws (or preempts) one. They pair with `posctl serve`, which
// runs the admission scheduler, and `posctl watch`, which streams its
// decisions.

func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", "", "controller API address host:port (required)")
	user := fs.String("user", "", "submitting user (required)")
	name := fs.String("name", "campaign", "campaign name (labels the results tree)")
	nodes := fs.String("nodes", "", "comma-separated node set to allocate (required)")
	minutes := fs.Int("minutes", 10, "allocation length in minutes")
	priority := fs.Int("priority", 0, "admission priority (higher admits first)")
	expDir := fs.String("expdir", "", "experiment directory to run (optional; default: the spec's case-study sweep)")
	specFile := fs.String("f", "", "campaign spec file (campaign.yml; default: the spec's defaults)")
	fs.Parse(args)
	if *addr == "" || *user == "" || *nodes == "" {
		return fmt.Errorf("submit: -addr, -user, and -nodes are required")
	}
	// The spec travels as the file's text; it is checked here so a typo
	// fails at the terminal, not later in the queue.
	var spec []byte
	if *specFile != "" {
		var err error
		if spec, err = os.ReadFile(*specFile); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		if _, err := casestudy.ParseSpec(spec); err != nil {
			return fmt.Errorf("submit: %s: %w", *specFile, err)
		}
	}
	// The submission is the root of the campaign's causal tree: the request
	// carries this span's traceparent, the queue journals it, and the
	// launched campaign adopts the trace ID — one trace from this terminal
	// to every replica lane. The queue's admission stamp, journaled with the
	// campaign, carries the time it waited.
	tr := telemetry.NewTrace("posctl:submit")
	ctx := telemetry.ContextWithTrace(context.Background(), tr)
	c := api.NewClient(*addr)
	view, err := c.SubmitCampaignContext(ctx, api.CampaignRequest{
		User:     *user,
		Name:     *name,
		Nodes:    splitCSV(*nodes),
		Minutes:  *minutes,
		Priority: *priority,
		ExpDir:   *expDir,
		Spec:     string(spec),
	})
	if err != nil {
		return err
	}
	fmt.Printf("campaign #%d submitted: %s/%s %s (position %d, trace %s)\n",
		view.ID, view.User, view.Name, view.State, view.Position, tr.ID())
	return nil
}

func cmdQueue(args []string) error {
	fs := flag.NewFlagSet("queue", flag.ExitOnError)
	addr := fs.String("addr", "", "controller API address host:port (required)")
	all := fs.Bool("all", false, "include finished campaigns")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("queue: -addr required")
	}
	c := api.NewClient(*addr)
	views, err := c.Campaigns()
	if err != nil {
		return err
	}
	shown := 0
	fmt.Printf("%-4s %-10s %-14s %-10s %-4s %-5s %-20s %s\n",
		"ID", "USER", "NAME", "STATE", "POS", "PRIO", "NODES", "INFO")
	for _, v := range views {
		if !*all && (v.State == string(queue.StateDone) ||
			v.State == string(queue.StateFailed) ||
			v.State == string(queue.StateCancelled)) {
			continue
		}
		fmt.Printf("%-4d %-10s %-14s %-10s %-4s %-5d %-20s %s\n",
			v.ID, v.User, v.Name, v.State, posColumn(v), v.Priority,
			strings.Join(v.Nodes, ","), infoColumn(v))
		shown++
	}
	if shown == 0 {
		fmt.Println("(queue empty)")
	}
	return nil
}

func posColumn(v api.CampaignView) string {
	if v.Position > 0 {
		return strconv.Itoa(v.Position)
	}
	return "-"
}

func infoColumn(v api.CampaignView) string {
	switch v.State {
	case string(queue.StateRunning):
		return fmt.Sprintf("allocation #%d since %s",
			v.AllocationID, v.Admitted.Format("15:04:05"))
	case string(queue.StateFailed):
		return v.Error
	case string(queue.StateQueued):
		return "waiting since " + v.Submitted.Format("15:04:05")
	default:
		if !v.Finished.IsZero() {
			return "at " + v.Finished.Format("15:04:05")
		}
		return ""
	}
}

func cmdCancel(args []string) error {
	fs := flag.NewFlagSet("cancel", flag.ExitOnError)
	addr := fs.String("addr", "", "controller API address host:port (required)")
	user := fs.String("user", "", "owning user (required)")
	id := fs.Int("id", 0, "campaign id to cancel (required)")
	fs.Parse(args)
	if *addr == "" || *user == "" || *id <= 0 {
		return fmt.Errorf("cancel: -addr, -user, and -id are required")
	}
	c := api.NewClient(*addr)
	view, err := c.CancelCampaign(*user, *id)
	if err != nil {
		return err
	}
	if view.State == string(queue.StateRunning) {
		fmt.Printf("campaign #%d preempting (will report cancelled once its runs stop)\n", view.ID)
		return nil
	}
	fmt.Printf("campaign #%d %s\n", view.ID, view.State)
	return nil
}

func splitCSV(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// maxQueueReplicas bounds the replica testbeds one queued campaign may
// build on the controller.
const maxQueueReplicas = 4

// queueLaunch returns the serve command's campaign launcher: each admitted
// submission's spec goes through the one campaign launcher, results filed
// under the submitting user's tree in the shared store. The spec's
// case-study sweep is named after the submission; a submission naming an
// -expdir runs that experiment directory instead, its roles bound to the
// spec's topology. A spec that does not parse fails the submission with an
// error naming the key.
func queueLaunch(store *results.Store) queue.Launch {
	return func(ctx context.Context, sub queue.Submission, events *eventlog.Pipeline) error {
		spec, err := casestudy.ParseSpec([]byte(sub.Spec))
		if err != nil {
			return err
		}
		if spec.Replicas > maxQueueReplicas {
			return fmt.Errorf("campaign: replicas: %d exceeds the queue's limit of %d", spec.Replicas, maxQueueReplicas)
		}
		exp := spec.Experiment()
		if sub.ExpDir != "" {
			bindings := make(map[string]string, len(exp.Hosts))
			for _, h := range exp.Hosts {
				bindings[h.Role] = h.Node
			}
			if exp, err = expfile.Load(sub.ExpDir, bindings); err != nil {
				return err
			}
		} else {
			exp.Name = sub.Name
		}
		exp.User = sub.User
		_, err = casestudy.Launch(ctx, spec, exp, store, events)
		return err
	}
}
