// Mailserver: a maildir-style mail delivery service running across many
// cores of a Hare deployment (the workload behind the paper's mailbench).
//
// Worker processes are spawned onto different cores via Hare's remote
// execution protocol. Each delivery creates a message in the user's tmp/
// directory, fsyncs it, and renames it into new/ — the rename exercises the
// ADD_MAP/RM_MAP protocol across two file servers, and the shared spool
// directory exercises directory distribution.
//
// Run with: go run ./examples/mailserver
package main

import (
	"fmt"
	"log"

	hare "repro"
)

const (
	users          = 4
	messagesPer    = 25
	messagePayload = "Subject: hello\n\nA short message delivered through Hare.\n"
)

func main() {
	cfg := hare.DefaultConfig()
	cfg.Cores = 8
	cfg.Servers = 8
	sys, err := hare.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()

	procs := sys.Procs()

	// Set up the spool: one maildir per user, all distributed.
	setup := procs.StartRoot(0, []string{"setup"}, func(p *hare.Proc) int {
		for u := 0; u < users; u++ {
			base := fmt.Sprintf("/spool/user%d", u)
			for _, dir := range []string{"/spool", base, base + "/tmp", base + "/new"} {
				if err := p.FS.Mkdir(dir, hare.MkdirOpt{Distributed: true}); err != nil && !hare.IsErrno(err, hare.EEXIST) {
					return 1
				}
			}
		}
		return 0
	})
	if setup.Wait() != 0 {
		log.Fatal("spool setup failed")
	}

	// One delivery agent per user, placed on cores by the scheduler.
	root := procs.StartRoot(0, []string{"smtpd"}, func(p *hare.Proc) int {
		var handles []*hare.Handle
		for u := 0; u < users; u++ {
			user := u
			h, err := p.Spawn([]string{fmt.Sprintf("deliver-user%d", user)}, func(wp *hare.Proc) int {
				return deliver(wp, user)
			}, true)
			if err != nil {
				return 1
			}
			handles = append(handles, h)
		}
		return p.Wait(handles...)
	})
	if root.Wait() != 0 {
		log.Fatal("delivery failed")
	}

	// Report: scan every mailbox from a fresh client.
	cli := sys.NewClient(1)
	total := 0
	for u := 0; u < users; u++ {
		ents, err := cli.ReadDir(fmt.Sprintf("/spool/user%d/new", u))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("user%d: %d messages\n", u, len(ents))
		total += len(ents)
	}
	fmt.Printf("delivered %d messages in %.3f ms of virtual time\n",
		total, sys.Seconds(procs.MaxEndTime())*1000)
}

// deliver is the per-user delivery agent: it writes each message to tmp/,
// forces it to the shared buffer cache, and renames it into new/.
func deliver(p *hare.Proc, user int) int {
	fs := p.FS
	base := fmt.Sprintf("/spool/user%d", user)
	for m := 0; m < messagesPer; m++ {
		tmp := fmt.Sprintf("%s/tmp/msg%04d", base, m)
		fd, err := fs.Open(tmp, hare.OCreate|hare.OWrOnly, hare.Mode644)
		if err != nil {
			return 1
		}
		if _, err := fs.Write(fd, []byte(messagePayloadFor(user, m))); err != nil {
			return 1
		}
		if err := fs.Fsync(fd); err != nil {
			return 1
		}
		if err := fs.Close(fd); err != nil {
			return 1
		}
		if err := fs.Rename(tmp, fmt.Sprintf("%s/new/msg%04d", base, m)); err != nil {
			return 1
		}
	}
	return 0
}

func messagePayloadFor(user, m int) string {
	return fmt.Sprintf("To: user%d\nMessage-Id: <%d-%d@hare>\n%s", user, user, m, messagePayload)
}
