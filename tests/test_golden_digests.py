"""Golden digests: the simulator's observable output, pinned per design.

Every registered endpoint design runs one small 4-node shuffle on each
topology preset, and the fabric-level multicast blast runs with UD
jitter and loss on each preset.  Each run is condensed into a record
(simulated end time, trace span count, delivery accounting, and a
sha256 over the canonical JSON of the comparable metrics snapshot and
the RunReport) and compared against ``golden_digests.json``.

The records were captured while the simulator still carried a legacy
generator implementation of the Send path beside the callback one, and
were identical under both; the file now carries that bit-identity
guarantee.  The interpreter self-counters are left out of the hash (see
:mod:`tests.comparable`), so a change that only schedules the same
behaviour with fewer kernel objects keeps every golden.

A mismatch prints the fresh record.  A deliberate model change updates
``golden_digests.json`` by hand and says why in the change log.
"""

import hashlib
import json
import os

import pytest

from repro.core import DESIGNS
from repro.fabric import (
    DUAL_RAIL,
    EDR,
    LEAF_SPINE,
    SINGLE_SWITCH,
    ClusterConfig,
    Fabric,
    Packet,
)
from repro.sim import Simulator
from tests.comparable import comparable
from tests.test_train_determinism import run_shuffle

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_digests.json")

TOPOLOGIES = {
    "single-switch": SINGLE_SWITCH,
    "leaf-spine": LEAF_SPINE(oversubscription=2, nodes_per_leaf=2),
    "dual-rail": DUAL_RAIL,
}

NODES = 4


def _sha256(obj):
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def shuffle_record(design, topology):
    snapshot, spans, now, report_json, messages, packets = run_shuffle(
        design, topology, nodes=NODES)
    return {
        "end_ns": now,
        "spans": spans,
        "delivered_messages": messages,
        "delivered_packets": packets,
        "sha256": _sha256({"metrics": comparable(snapshot),
                           "report": json.loads(report_json)}),
    }


def _mcast_run(topology):
    """Blast multicast datagrams with jitter and loss injection enabled;
    returns every per-leg outcome in completion order."""
    sim = Simulator()
    config = ClusterConfig(network=EDR, num_nodes=8,
                           topology=topology).with_network(
        ud_jitter_ns=2600, ud_loss_probability=0.25)
    fabric = Fabric(sim, config)
    mgid = 7
    for node in range(1, 8):
        fabric.mcast_attach(mgid, node, 200 + node)
    outcomes = []

    def wait_leg(leg):
        copy = yield leg
        outcomes.append((sim.now, copy.dst_node, copy.dropped))

    def collect(fanned_out):
        legs = yield fanned_out
        for leg in legs:
            sim.process(wait_leg(leg))

    for seq in range(16):
        pkt = Packet(0, 0, 11, 0, "SEND", 2048, 2108, meta={"seq": seq})
        sim.process(collect(fabric.route_mcast(pkt, mgid)))
    sim.run()
    return (outcomes, sim.now,
            fabric.delivered_messages, fabric.dropped_messages)


def mcast_record(topology):
    outcomes, now, delivered, dropped = _mcast_run(topology)
    return {
        "end_ns": now,
        "legs": len(outcomes),
        "delivered_messages": delivered,
        "dropped_messages": dropped,
        "sha256": _sha256(outcomes),
    }


def _golden(key):
    with open(GOLDEN_PATH) as f:
        return json.load(f)[key]


def _check(key, fresh):
    assert fresh == _golden(key), (
        f"{key} diverges from {os.path.basename(GOLDEN_PATH)}; fresh record:"
        f"\n{json.dumps({key: fresh}, indent=2, sort_keys=True)}")


SHUFFLE_CASES = [(design, topo) for design in DESIGNS for topo in TOPOLOGIES]


@pytest.mark.parametrize("design,topology", SHUFFLE_CASES,
                         ids=[f"{d}-{t}" for d, t in SHUFFLE_CASES])
def test_shuffle_matches_golden(design, topology):
    _check(f"shuffle/{design}/{topology}",
           shuffle_record(design, TOPOLOGIES[topology]))


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_mcast_blast_matches_golden(topology):
    """Multicast exercises routing paths unicast cannot: the trunk hands
    over to a fan-out terminal, and every leg draws jitter *and* loss."""
    fresh = mcast_record(TOPOLOGIES[topology])
    assert fresh["delivered_messages"] + fresh["dropped_messages"] \
        == fresh["legs"] == 16 * 7
    assert fresh["dropped_messages"] > 0, \
        "loss injection should have dropped some legs"
    assert fresh["delivered_messages"] > 0
    _check(f"mcast/{topology}", fresh)
