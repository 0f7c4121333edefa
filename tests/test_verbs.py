"""Unit tests for the verbs layer (QPs, CQs, MRs, transports)."""

import pytest

from repro.fabric import EDR, ClusterConfig, Fabric
from repro.memory import BufferPool
from repro.sim import Simulator
from repro.verbs import (
    AddressHandle,
    CompletionQueue,
    Opcode,
    QPType,
    RecvWR,
    SendWR,
    VerbsContext,
    VerbsError,
    WorkCompletion,
)


@pytest.fixture
def sim():
    return Simulator()


def make_cluster(sim, nodes=2, **net_overrides):
    cluster = ClusterConfig(network=EDR, num_nodes=nodes)
    cluster = cluster.with_network(ud_jitter_ns=0, **net_overrides)
    fabric = Fabric(sim, cluster)
    return fabric, [VerbsContext(sim, fabric, i) for i in range(nodes)]


def rc_pair(ctxs, a=0, b=1):
    """Create and connect an RC QP pair between two contexts."""
    cqs = []
    qps = []
    for ctx in (ctxs[a], ctxs[b]):
        cq = ctx.create_cq()
        qp = ctx.create_qp(QPType.RC, cq, cq)
        cqs.append(cq)
        qps.append(qp)
    qps[0].connect(AddressHandle(ctxs[b].node_id, qps[1].qpn))
    qps[1].connect(AddressHandle(ctxs[a].node_id, qps[0].qpn))
    return qps, cqs


class TestMemoryRegion:
    def test_register_and_account(self, sim):
        _, ctxs = make_cluster(sim)
        mr = ctxs[0].reg_mr(8192)
        assert ctxs[0].registered_bytes == 8192
        ctxs[0].dereg_mr(mr)
        assert ctxs[0].registered_bytes == 0
        assert ctxs[0].peak_registered_bytes == 8192

    def test_word_roundtrip(self, sim):
        _, ctxs = make_cluster(sim)
        mr = ctxs[0].reg_mr(64)
        mr.write_u64(mr.addr + 8, 12345)
        assert mr.read_u64(mr.addr + 8) == 12345
        assert mr.read_u64(mr.addr) == 0  # untouched words read zero

    def test_out_of_bounds_access_rejected(self, sim):
        _, ctxs = make_cluster(sim)
        mr = ctxs[0].reg_mr(64)
        with pytest.raises(VerbsError):
            mr.read_u64(mr.addr + 60)  # 8-byte read crossing the end
        with pytest.raises(VerbsError):
            mr.write_u64(mr.addr - 8, 1)

    def test_deregistered_access_rejected(self, sim):
        _, ctxs = make_cluster(sim)
        mr = ctxs[0].reg_mr(64)
        ctxs[0].dereg_mr(mr)
        with pytest.raises(VerbsError):
            mr.write_u64(mr.addr, 1)

    def test_resolve_finds_owning_region(self, sim):
        _, ctxs = make_cluster(sim)
        mr1 = ctxs[0].reg_mr(100)
        mr2 = ctxs[0].reg_mr(100)
        assert ctxs[0].memory.resolve(mr2.addr + 50) is mr2
        assert ctxs[0].memory.resolve(mr1.addr) is mr1

    def test_resolve_unregistered_raises(self, sim):
        _, ctxs = make_cluster(sim)
        with pytest.raises(VerbsError):
            ctxs[0].memory.resolve(0xDEAD)

    def test_timed_registration_charges_time(self, sim):
        _, ctxs = make_cluster(sim)

        def proc():
            yield from ctxs[0].reg_mr_timed(1 << 20)  # 256 pages
            return sim.now

        t = sim.run_process(proc())
        assert t == EDR.mr_register_base_ns + 256 * EDR.mr_register_ns_per_page


class TestBufferPool:
    def test_pool_carves_distinct_buffers(self, sim):
        _, ctxs = make_cluster(sim)
        pool = BufferPool(ctxs[0], count=4, size=4096)
        addrs = {buf.addr for buf in pool.buffers}
        assert len(addrs) == 4
        assert ctxs[0].registered_bytes == 4 * 4096

    def test_at_resolves_by_address(self, sim):
        _, ctxs = make_cluster(sim)
        pool = BufferPool(ctxs[0], count=2, size=64)
        assert pool.at(pool.buffers[1].addr) is pool.buffers[1]
        with pytest.raises(ValueError):
            pool.at(12345)

    def test_fill_publishes_for_rdma_read(self, sim):
        _, ctxs = make_cluster(sim)
        pool = BufferPool(ctxs[0], count=1, size=64)
        buf = pool.buffers[0]
        buf.fill("payload", 10)
        assert pool.mr.get_object(buf.addr) == "payload"
        buf.reset()
        assert pool.mr.get_object(buf.addr) is None

    def test_fill_overflow_rejected(self, sim):
        _, ctxs = make_cluster(sim)
        pool = BufferPool(ctxs[0], count=1, size=64)
        with pytest.raises(ValueError):
            pool.buffers[0].fill("x", 65)


class TestCompletionQueue:
    def test_poll_drains_in_order(self, sim):
        cq = CompletionQueue(sim)
        for i in range(3):
            cq.push(WorkCompletion(wr_id=i, opcode=Opcode.SEND))
        assert [wc.wr_id for wc in cq.poll()] == [0, 1, 2]
        assert cq.poll() == []

    def test_poll_respects_max_entries(self, sim):
        cq = CompletionQueue(sim)
        for i in range(5):
            cq.push(WorkCompletion(wr_id=i, opcode=Opcode.SEND))
        assert len(cq.poll(max_entries=2)) == 2
        assert len(cq) == 3

    def test_overrun_raises(self, sim):
        cq = CompletionQueue(sim, depth=1)
        cq.push(WorkCompletion(wr_id=0, opcode=Opcode.SEND))
        with pytest.raises(VerbsError):
            cq.push(WorkCompletion(wr_id=1, opcode=Opcode.SEND))

    def test_blocking_wait(self, sim):
        cq = CompletionQueue(sim)

        def proc():
            wc = yield cq.wait()
            return (sim.now, wc.wr_id)

        late = WorkCompletion(wr_id="late", opcode=Opcode.SEND)
        sim.call_at(100, lambda: cq.push(late))
        assert sim.run_process(proc()) == (100, "late")


class TestRCSendRecv:
    def test_roundtrip_delivers_payload(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, qp1), (cq0, cq1) = rc_pair(ctxs)
        spool = BufferPool(ctxs[0], 1, 65536)
        rpool = BufferPool(ctxs[1], 1, 65536)
        sbuf, rbuf = spool.buffers[0], rpool.buffers[0]
        sbuf.fill(["tuple1", "tuple2"], 4096)
        qp1.post_recv(RecvWR(wr_id="r", buffer=rbuf, length=65536))
        qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, buffer=sbuf, length=4096))

        def proc():
            recv_wc = yield cq1.wait()
            send_wc = yield cq0.wait()
            return recv_wc, send_wc

        recv_wc, send_wc = sim.run_process(proc())
        assert recv_wc.opcode is Opcode.RECV and recv_wc.byte_len == 4096
        assert rbuf.payload == ["tuple1", "tuple2"]
        assert send_wc.opcode is Opcode.SEND and send_wc.wr_id == "s"

    def test_send_blocks_until_recv_posted(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, qp1), (cq0, cq1) = rc_pair(ctxs)
        spool = BufferPool(ctxs[0], 1, 4096)
        rpool = BufferPool(ctxs[1], 1, 4096)
        spool.buffers[0].fill("x", 100)
        qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND,
                             buffer=spool.buffers[0], length=100))

        def late_recv():
            yield sim.timeout(50_000)
            qp1.post_recv(RecvWR(wr_id="r", buffer=rpool.buffers[0], length=4096))

        sim.process(late_recv())

        def proc():
            wc = yield cq1.wait()
            return (sim.now, wc)

        t, wc = sim.run_process(proc())
        assert t >= 50_000
        assert wc.ok

    def test_in_order_delivery(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, qp1), (cq0, cq1) = rc_pair(ctxs)
        spool = BufferPool(ctxs[0], 8, 4096)
        rpool = BufferPool(ctxs[1], 8, 4096)
        for i, rbuf in enumerate(rpool.buffers):
            qp1.post_recv(RecvWR(wr_id=i, buffer=rbuf, length=4096))
        for i, sbuf in enumerate(spool.buffers):
            sbuf.fill(f"msg{i}", 4096)
            qp0.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, buffer=sbuf, length=4096))

        def proc():
            order = []
            for _ in range(8):
                wc = yield cq1.wait()
                order.append(wc.wr_id)
            return order

        assert sim.run_process(proc()) == list(range(8))

    def test_imm_data_delivered(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, qp1), (cq0, cq1) = rc_pair(ctxs)
        rpool = BufferPool(ctxs[1], 1, 4096)
        qp1.post_recv(RecvWR(wr_id="r", buffer=rpool.buffers[0], length=4096))
        qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=0, imm=77))

        def proc():
            wc = yield cq1.wait()
            return wc.imm

        assert sim.run_process(proc()) == 77

    def test_send_on_unconnected_qp_rejected(self, sim):
        _, ctxs = make_cluster(sim)
        cq = ctxs[0].create_cq()
        qp = ctxs[0].create_qp(QPType.RC, cq, cq)
        with pytest.raises(VerbsError, match="post send"):
            qp.post_send(SendWR(wr_id=0, opcode=Opcode.SEND, length=0))

    def test_oversized_rc_message_rejected(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, _), _ = rc_pair(ctxs)
        with pytest.raises(VerbsError, match="1 GiB"):
            qp0.post_send(SendWR(wr_id=0, opcode=Opcode.SEND, length=(1 << 30) + 1))


class TestRdmaWrite:
    def test_write_word_to_remote_memory(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, qp1), (cq0, _) = rc_pair(ctxs)
        target = ctxs[1].reg_mr(64)
        qp0.post_send(SendWR(wr_id="w", opcode=Opcode.WRITE,
                             remote_addr=target.addr + 16, value=99, inline=True))

        def proc():
            wc = yield cq0.wait()
            return wc

        wc = sim.run_process(proc())
        assert wc.opcode is Opcode.WRITE and wc.ok
        assert target.read_u64(target.addr + 16) == 99

    def test_write_to_unregistered_memory_fails(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, _), _ = rc_pair(ctxs)
        qp0.post_send(SendWR(wr_id="w", opcode=Opcode.WRITE,
                             remote_addr=0xBAD, value=1))
        with pytest.raises(VerbsError):
            sim.run()

    def test_write_requires_value_or_buffer(self, sim):
        with pytest.raises(VerbsError):
            SendWR(wr_id=0, opcode=Opcode.WRITE, remote_addr=100)

    def test_write_past_end_of_remote_mr_fails(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, _), _ = rc_pair(ctxs)
        target = ctxs[1].reg_mr(4096)
        spool = BufferPool(ctxs[0], 1, 65536)
        spool.buffers[0].fill("bulk", 65536)
        # The first byte is inside the MR, the remaining 65,528 are not.
        qp0.post_send(SendWR(wr_id="w", opcode=Opcode.WRITE,
                             buffer=spool.buffers[0], length=65536,
                             remote_addr=target.addr + 4096 - 8))
        with pytest.raises(VerbsError, match="outside MR"):
            sim.run()


class TestRdmaRead:
    def test_read_pulls_remote_buffer(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, qp1), (cq0, _) = rc_pair(ctxs)
        rpool = BufferPool(ctxs[1], 1, 65536)  # remote (passive) side
        lpool = BufferPool(ctxs[0], 1, 65536)  # local destination
        rpool.buffers[0].fill({"rows": [1, 2, 3]}, 65536)
        qp0.post_send(SendWR(wr_id="rd", opcode=Opcode.READ,
                             buffer=lpool.buffers[0], length=65536,
                             remote_addr=rpool.buffers[0].addr))

        def proc():
            wc = yield cq0.wait()
            return wc

        wc = sim.run_process(proc())
        assert wc.opcode is Opcode.READ and wc.ok
        assert lpool.buffers[0].payload == {"rows": [1, 2, 3]}

    def test_read_needs_local_buffer(self):
        with pytest.raises(VerbsError):
            SendWR(wr_id=0, opcode=Opcode.READ, length=10, remote_addr=100)

    def test_read_larger_than_local_buffer_rejected_at_post(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, _), _ = rc_pair(ctxs)
        rpool = BufferPool(ctxs[1], 1, 65536)
        lpool = BufferPool(ctxs[0], 1, 4096)
        with pytest.raises(VerbsError,
                           match="RDMA Read of 65536 B exceeds the local "
                                 "buffer capacity 4096"):
            qp0.post_send(SendWR(wr_id="rd", opcode=Opcode.READ,
                                 buffer=lpool.buffers[0], length=65536,
                                 remote_addr=rpool.buffers[0].addr))
        assert lpool.buffers[0].length == 0
        assert qp0.sends_posted == 0

    def test_read_from_unregistered_memory_fails(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, _), _ = rc_pair(ctxs)
        lpool = BufferPool(ctxs[0], 1, 4096)
        qp0.post_send(SendWR(wr_id="rd", opcode=Opcode.READ,
                             buffer=lpool.buffers[0], length=64,
                             remote_addr=0xBAD))
        with pytest.raises(VerbsError, match="not in any registered region"):
            sim.run()

    def test_read_past_end_of_remote_mr_fails(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, _), _ = rc_pair(ctxs)
        source = ctxs[1].reg_mr(4096)
        lpool = BufferPool(ctxs[0], 1, 65536)
        qp0.post_send(SendWR(wr_id="rd", opcode=Opcode.READ,
                             buffer=lpool.buffers[0], length=65536,
                             remote_addr=source.addr + 4096 - 8))
        with pytest.raises(VerbsError, match="outside MR"):
            sim.run()
        assert lpool.buffers[0].length == 0


class TestOneSidedVerbChains:
    def test_read_and_write_complete_without_a_process(self, sim):
        _, ctxs = make_cluster(sim)
        (qp0, _), (cq0, _) = rc_pair(ctxs)
        rpool = BufferPool(ctxs[1], 2, 4096)
        lpool = BufferPool(ctxs[0], 2, 4096)
        rpool.buffers[0].fill("remote", 4096)
        lpool.buffers[1].fill("local", 4096)
        started = sim.processes_started
        qp0.post_send(SendWR(wr_id="rd", opcode=Opcode.READ,
                             buffer=lpool.buffers[0], length=4096,
                             remote_addr=rpool.buffers[0].addr))
        qp0.post_send(SendWR(wr_id="wr", opcode=Opcode.WRITE,
                             buffer=lpool.buffers[1], length=4096,
                             remote_addr=rpool.buffers[1].addr))
        sim.run()
        assert sim.processes_started == started
        assert [wc.wr_id for wc in cq0.poll(8)] == ["rd", "wr"]
        assert lpool.buffers[0].payload == "remote"
        assert rpool.mr.get_object(rpool.buffers[1].addr) == "local"

    def test_work_requests_reach_the_nic_in_post_order(self, sim):
        """Every verb's first step takes the same queue slot, so mixed
        Sends, Reads and Writes posted together start in post order."""
        fabric, ctxs = make_cluster(sim)
        (qp0, qp1), _ = rc_pair(ctxs)
        rpool = BufferPool(ctxs[1], 4, 4096)
        lpool = BufferPool(ctxs[0], 2, 4096)
        started = []

        def on_pipe_occupy(kind, owner, _busy, _base, _penalty, _extra,
                           flow, _nbytes):
            if (kind, owner) == ("proc", 0):
                started.append(flow)

        fabric.probes.subscribe("pipe_occupy", on_pipe_occupy)
        qp1.post_recv(RecvWR(wr_id="r", buffer=rpool.buffers[3], length=4096))
        qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=64,
                             flow=1))
        qp0.post_send(SendWR(wr_id="rd", opcode=Opcode.READ,
                             buffer=lpool.buffers[0], length=4096,
                             remote_addr=rpool.buffers[0].addr, flow=2))
        qp0.post_send(SendWR(wr_id="w", opcode=Opcode.WRITE,
                             remote_addr=rpool.buffers[1].addr, value=7,
                             inline=True, flow=3))
        qp0.post_send(SendWR(wr_id="rd2", opcode=Opcode.READ,
                             buffer=lpool.buffers[1], length=4096,
                             remote_addr=rpool.buffers[2].addr, flow=4))
        sim.run()
        assert started == [1, 2, 3, 4]


class TestUD:
    def make_ud_pair(self, sim, **net_overrides):
        _, ctxs = make_cluster(sim, **net_overrides)
        cqs, qps = [], []
        for ctx in ctxs:
            cq = ctx.create_cq()
            qp = ctx.create_qp(QPType.UD, cq, cq)
            qp.activate()
            cqs.append(cq)
            qps.append(qp)
        return ctxs, qps, cqs

    def test_roundtrip(self, sim):
        ctxs, (qp0, qp1), (cq0, cq1) = self.make_ud_pair(sim)
        spool = BufferPool(ctxs[0], 1, 4096)
        rpool = BufferPool(ctxs[1], 1, 4096)
        spool.buffers[0].fill("datagram", 4096)
        qp1.post_recv(RecvWR(wr_id="r", buffer=rpool.buffers[0], length=4096))
        qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND,
                             buffer=spool.buffers[0], length=4096,
                             dest=AddressHandle(1, qp1.qpn)))

        def proc():
            wc = yield cq1.wait()
            return wc

        wc = sim.run_process(proc())
        assert wc.src_node == 0 and wc.src_qpn == qp0.qpn
        assert rpool.buffers[0].payload == "datagram"

    def test_send_completion_precedes_delivery(self, sim):
        ctxs, (qp0, qp1), (cq0, cq1) = self.make_ud_pair(sim)
        qp1.post_recv(RecvWR(wr_id="r", buffer=None, length=4096))
        qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=4096,
                             dest=AddressHandle(1, qp1.qpn)))

        def proc():
            swc = yield cq0.wait()
            t_send = sim.now
            rwc = yield cq1.wait()
            return t_send, sim.now

        t_send, t_recv = sim.run_process(proc())
        assert t_send < t_recv  # no ack round trip in UD

    def test_message_larger_than_mtu_rejected(self, sim):
        ctxs, (qp0, qp1), _ = self.make_ud_pair(sim)
        with pytest.raises(VerbsError, match="MTU"):
            qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=4097,
                                 dest=AddressHandle(1, qp1.qpn)))

    def test_rdma_read_unsupported_on_ud(self, sim):
        ctxs, (qp0, qp1), _ = self.make_ud_pair(sim)
        pool = BufferPool(ctxs[0], 1, 4096)
        with pytest.raises(VerbsError, match="Send/Receive"):
            qp0.post_send(SendWR(wr_id=0, opcode=Opcode.READ,
                                 buffer=pool.buffers[0], length=64,
                                 remote_addr=100,
                                 dest=AddressHandle(1, qp1.qpn)))

    def test_unmatched_send_silently_dropped(self, sim):
        ctxs, (qp0, qp1), (cq0, cq1) = self.make_ud_pair(sim)
        qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=100,
                             dest=AddressHandle(1, qp1.qpn)))
        sim.run()
        assert qp1.ud_drops == 1
        assert len(cq1) == 0
        assert len(cq0) == 1  # sender still completes

    def test_loss_injection_loses_datagram(self, sim):
        ctxs, (qp0, qp1), (cq0, cq1) = self.make_ud_pair(
            sim, ud_loss_probability=1.0)
        qp1.post_recv(RecvWR(wr_id="r", buffer=None, length=4096))
        qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=100,
                             dest=AddressHandle(1, qp1.qpn)))
        sim.run()
        assert len(cq1) == 0  # never delivered
        assert len(cq0) == 1  # sender unaware

    def test_one_ud_qp_talks_to_many_peers(self, sim):
        cluster = ClusterConfig(network=EDR, num_nodes=4)
        cluster = cluster.with_network(ud_jitter_ns=0)
        fabric = Fabric(sim, cluster)
        ctxs = [VerbsContext(sim, fabric, i) for i in range(4)]
        cqs, qps = [], []
        for ctx in ctxs:
            cq = ctx.create_cq()
            qp = ctx.create_qp(QPType.UD, cq, cq)
            qp.activate()
            cqs.append(cq)
            qps.append(qp)
        for i in range(1, 4):
            qps[i].post_recv(RecvWR(wr_id=i, buffer=None, length=4096))
            qps[0].post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=64,
                                    dest=AddressHandle(i, qps[i].qpn)))
        sim.run()
        for i in range(1, 4):
            assert len(cqs[i]) == 1


class TestQPLimits:
    def test_send_queue_depth_enforced(self, sim):
        _, ctxs = make_cluster(sim)
        cq = ctxs[0].create_cq()
        qp = ctxs[0].create_qp(QPType.UD, cq, cq, max_send_wr=2)
        qp.activate()
        for i in range(2):
            qp.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=10,
                                dest=AddressHandle(1, 999)))
        with pytest.raises(VerbsError, match="send queue full"):
            qp.post_send(SendWR(wr_id=9, opcode=Opcode.SEND, length=10,
                                dest=AddressHandle(1, 999)))

    def test_recv_queue_depth_enforced(self, sim):
        _, ctxs = make_cluster(sim)
        cq = ctxs[0].create_cq()
        qp = ctxs[0].create_qp(QPType.UD, cq, cq, max_recv_wr=1)
        qp.post_recv(RecvWR(wr_id=0, buffer=None, length=64))
        with pytest.raises(VerbsError, match="receive queue full"):
            qp.post_recv(RecvWR(wr_id=1, buffer=None, length=64))

    def test_depth_beyond_hardware_limit_rejected(self, sim):
        _, ctxs = make_cluster(sim)
        cq = ctxs[0].create_cq()
        with pytest.raises(VerbsError, match="hardware limit"):
            ctxs[0].create_qp(QPType.RC, cq, cq, max_send_wr=1 << 20)

    def test_connect_wrong_transport_rejected(self, sim):
        _, ctxs = make_cluster(sim)
        cq = ctxs[0].create_cq()
        ud = ctxs[0].create_qp(QPType.UD, cq, cq)
        rc = ctxs[0].create_qp(QPType.RC, cq, cq)
        with pytest.raises(VerbsError):
            ud.connect(AddressHandle(1, 5))
        with pytest.raises(VerbsError):
            rc.activate()
