package client

import (
	"slices"

	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/place"
	"repro/internal/proto"
)

// Epoch-cached routing (DESIGN.md §9).
//
// The client holds one consistent snapshot of the deployment's routing
// state: the placement map (which member server stores each
// distributed-directory entry) plus the endpoint and core of every server
// ever spun up, drained or not. Every request a snapshot routes is stamped
// with the snapshot's epoch; when a server answers EEPOCH the snapshot is
// refreshed from the provider and the operation retries. Requests that are
// not placement-routed — inode, descriptor and pipe operations, and entries
// of centralized directories, which live with their directory's inode —
// carry epoch 0 and never hit the gate: inodes do not migrate.

// Routing is one epoch's routing snapshot. Servers and Cores are indexed by
// server id and cover every server the deployment has ever started
// (drained servers keep serving the inodes they own); the map's members are
// the subset that owns directory-entry shards and receives new placements.
type Routing struct {
	Map     *place.Map
	Servers []msg.EndpointID
	Cores   []int
}

// RoutingProvider publishes the deployment's current routing snapshot; the
// core layer implements it and swaps the snapshot atomically when servers
// are added or removed.
type RoutingProvider interface {
	Routing() *Routing
}

// refreshRouting reloads the routing snapshot (after an EEPOCH reply) and
// rebuilds the creation-affinity ring, whose servers must stay placement
// members.
func (c *Client) refreshRouting() {
	c.routing = c.cfg.Provider.Routing()
	c.near = c.nearRing()
}

// routeEntry is the one place that consults the placement map: it returns
// the server storing the directory entry `name` of `dir`, plus the epoch
// that decision was made under. Entries of centralized directories live with
// the directory's inode and are not placement-routed (epoch 0).
func (c *Client) routeEntry(dir proto.InodeID, dirDist bool, name string) (int, uint64) {
	if dirDist {
		m := c.routing.Map
		return int(m.Route(proto.Hash(dir, name))), m.Epoch()
	}
	return int(dir.Server), 0
}

// maxEpochRetries bounds every EEPOCH refresh-retry loop. A healthy
// migration publishes its new routing before committing, so a client
// refreshes at most a couple of times per membership change; a snapshot
// provider that never catches up to the servers' epoch (a control-plane
// bug, or a test driving the client against a torn-down deployment) would
// otherwise spin forever. Exhaustion surfaces as EIO, the errno for "the
// deployment is wedged", not EEPOCH, which callers treat as retriable.
const maxEpochRetries = 32

// retryEpoch is the one EEPOCH retry step, taken when the try-th attempt of
// op met a server at a newer epoch than the routing snapshot: after
// maxEpochRetries refreshes that did not help it gives up with EIO;
// otherwise it reloads the snapshot, notes the refresh under the current
// span and yields, and the caller routes the operation again.
func (c *Client) retryEpoch(op proto.Op, try int) error {
	if try >= maxEpochRetries {
		return fsapi.EIO
	}
	c.refreshRouting()
	c.noteEpochRefresh(op, try)
	c.yield()
	return nil
}

// routedEntryRPC routes one directory-entry request, stamps it with the
// routing epoch, and transparently refreshes + retries when the server
// answers EEPOCH (the deployment migrated under us). Protocol errors other
// than EEPOCH are returned in the response, as with rpc. The retries are
// bounded (retryEpoch).
func (c *Client) routedEntryRPC(dir proto.InodeID, dirDist bool, name string, req *proto.Request) (*proto.Response, error) {
	for try := 0; ; try++ {
		srv, epoch := c.routeEntry(dir, dirDist, name)
		req.Epoch = epoch
		resp, err := c.rpc(srv, req)
		if err != nil || resp.Err != fsapi.EEPOCH {
			return resp, err
		}
		if err := c.retryEpoch(req.Op, try); err != nil {
			return nil, err
		}
	}
}

// routedEntryRPCOK is routedEntryRPC with rpcOK's error convention.
func (c *Client) routedEntryRPCOK(dir proto.InodeID, dirDist bool, name string, req *proto.Request) (*proto.Response, error) {
	resp, err := c.routedEntryRPC(dir, dirDist, name, req)
	if err != nil {
		return nil, err
	}
	if resp.Err != fsapi.OK {
		return resp, resp.Err
	}
	return resp, nil
}

// coalescedCreate routes a create for (parent, name) and, while creation
// affinity keeps the inode server equal to the entry server, sends the
// given chain there — a coalesced-create request and whatever follows it on
// the new inode (proto.PrevInode), stop-on-error — refreshing and re-routing
// on EEPOCH like every routed helper. It appends the chain's responses to
// out; none means the placement (or a mid-retry migration) moved the entry
// server off this client's socket and no RPC was issued: the caller takes
// the split mknod+addmap path instead.
func (c *Client) coalescedCreate(parent proto.InodeID, parentDist bool, name string, chain []*proto.Request, out []*proto.Response) ([]*proto.Response, error) {
	entrySrv, epoch := c.routeEntry(parent, parentDist, name)
	for try := 0; c.staysWithEntry(entrySrv); try++ {
		chain[0].Epoch = epoch
		resps, err := c.rpcBatch(entrySrv, true, chain, out)
		if err != nil || resps[0].Err != fsapi.EEPOCH {
			return resps, err
		}
		if err := c.retryEpoch(chain[0].Op, try); err != nil {
			return nil, err
		}
		entrySrv, epoch = c.routeEntry(parent, parentDist, name)
	}
	return nil, nil
}

// routedBroadcast fans a shard request out to every placement member (for a
// distributed directory) or to the directory's home server (centralized),
// re-routing and retrying the whole fan-out when any member answers EEPOCH.
// The returned responses are free of EEPOCH but may carry other protocol
// errors for the caller to interpret. Like routedEntryRPC's, the retries are
// bounded (retryEpoch).
func (c *Client) routedBroadcast(home int32, dist bool, req *proto.Request) ([]*proto.Response, error) {
	for try := 0; ; try++ {
		var servers []int
		if dist {
			servers = c.memberServers()
			req.Epoch = c.routing.Map.Epoch()
		} else {
			servers = []int{int(home)}
			req.Epoch = 0
		}
		resps, err := c.broadcast(servers, req)
		if err != nil || !slices.ContainsFunc(resps, func(r *proto.Response) bool { return r.Err == fsapi.EEPOCH }) {
			return resps, err
		}
		if err := c.retryEpoch(req.Op, try); err != nil {
			return nil, err
		}
	}
}
