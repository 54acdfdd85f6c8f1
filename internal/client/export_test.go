package client

// RespsInUse reports how many arena responses belong to calls in progress
// and how many structs the arena keeps; between public calls the first is 0.
func (c *Client) RespsInUse() (used, kept int) { return c.resps.used, len(c.resps.items) }

// RespArenaCap is the arena's bound, for tests.
const RespArenaCap = respArenaCap

// RefreshRouting reloads the routing snapshot as an EEPOCH reply would.
func (c *Client) RefreshRouting() { c.refreshRouting() }
