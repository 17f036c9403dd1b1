"""Single-destination Nue steps for the core tests (not a test module)."""

import numpy as np


def route_one(router, dest):
    """Route one destination through ``router.route_batch``.

    Returns ``(column, step)``: ``column[v]`` is the traffic-direction
    channel node ``v`` forwards on toward ``dest`` (-1 at ``dest``), so
    the search-orientation channel entering ``v`` — Algorithm 1's
    ``usedChannel[v]`` — is ``channel_reverse[column[v]]``.
    """
    block = np.full((router.net.n_nodes, 1), -1, dtype=np.int32)
    (step,) = router.route_batch([dest], block)
    return block[:, 0], step
