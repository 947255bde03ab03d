"""Unit tests for scheduled delivery: DeliveryQueue, loop guards, WireScheduler."""

import random

import pytest

from repro.netsim import (
    ConnectionReset,
    LoopStarvation,
    Network,
    Protocol,
    StreamSocket,
    WireScheduler,
    drive,
    settle,
)
from repro.netsim.events import DeliveryQueue


class Recorder(Protocol):
    """Records every callback it receives, in order."""

    def __init__(self):
        self.calls = []

    def connection_made(self, sock):
        self.calls.append(("made", sock))

    def data_received(self, sock, data):
        self.calls.append(("data", bytes(data)))

    def connection_lost(self, sock):
        self.calls.append(("lost", sock))


class Echo(Protocol):
    def data_received(self, sock, data):
        sock.send(data.upper())


class ReplyThenClose(Protocol):
    """The PolicyServer shape: answer, then hang up."""

    def data_received(self, sock, data):
        sock.send(b"reply:" + data)
        sock.close()


class TestDeliveryQueue:
    def test_inactive_queue_is_synchronous(self):
        queue = DeliveryQueue()
        server = Recorder()
        a, b = StreamSocket.pair("a", "b", queue=queue)
        b.protocol = server
        a.send(b"ping")
        assert server.calls == [("data", b"ping")]
        assert len(queue) == 0

    def test_active_queue_defers_until_drain(self):
        queue = DeliveryQueue()
        queue.active = True
        server = Recorder()
        a, b = StreamSocket.pair("a", "b", queue=queue)
        b.protocol = server
        a.send(b"ping")
        assert server.calls == []
        assert queue.depth == 1
        queue.drain()
        assert server.calls == [("data", b"ping")]
        assert queue.delivered == 1

    def test_drain_is_fifo(self):
        queue = DeliveryQueue()
        queue.active = True
        server = Recorder()
        a, b = StreamSocket.pair("a", "b", queue=queue)
        b.protocol = server
        for chunk in (b"1", b"2", b"3"):
            a.send(chunk)
        queue.drain()
        assert server.calls == [("data", b"1"), ("data", b"2"), ("data", b"3")]

    def test_drain_reaches_quiescence_through_replies(self):
        # The echo reply is enqueued *during* the drain and must be
        # processed by the same drain call.
        queue = DeliveryQueue()
        queue.active = True
        a, b = StreamSocket.pair("a", "b", queue=queue)
        b.protocol = Echo()
        a.send(b"ping")
        processed = queue.drain()
        assert processed == 2  # the request and the echoed reply
        assert a.recv() == b"PING"

    def test_reply_lands_before_queued_close(self):
        # "send policy then close": the reply event precedes the close
        # event in the FIFO, so the client sees the bytes, then loses
        # the connection — never the reverse.
        queue = DeliveryQueue()
        queue.active = True
        a, b = StreamSocket.pair("a", "b", queue=queue)
        b.protocol = ReplyThenClose()
        a.send(b"req")
        queue.drain()
        assert a.recv() == b"reply:req"
        assert a.closed
        assert queue.dropped == 0

    def test_delivery_to_closed_socket_dropped_and_counted(self):
        queue = DeliveryQueue()
        queue.active = True
        server = Recorder()
        a, b = StreamSocket.pair("a", "b", queue=queue)
        b.protocol = server
        a.send(b"in flight")
        b.closed = True  # closes under the event's feet
        queue.drain()
        assert server.calls == []
        assert queue.dropped == 1
        assert queue.delivered == 0

    def test_max_depth_high_water(self):
        queue = DeliveryQueue()
        queue.active = True
        a, b = StreamSocket.pair("a", "b", queue=queue)
        b.protocol = Recorder()
        for _ in range(5):
            a.send(b"x")
        assert queue.max_depth == 5
        queue.drain()
        assert queue.max_depth == 5  # high-water survives the drain

    def test_queued_connect_defers_connection_made(self):
        net = Network()
        greeter = Recorder()
        server = net.add_host("s.example")
        client = net.add_host("c.example")
        server.listen(80, lambda: greeter)
        net.queue.active = True
        try:
            sock = client.connect("s.example", 80)
            assert greeter.calls == []
            net.queue.drain()
        finally:
            net.queue.active = False
        assert greeter.calls == [("made", sock.peer)]
        assert net.queue.connects == 1


class TestCloseSymmetry:
    def test_both_protocols_notified_once(self):
        # The closing side's own protocol historically never heard
        # connection_lost; now both sides get exactly one notification.
        left, right = Recorder(), Recorder()
        a, b = StreamSocket.pair("a", "b")
        a.protocol = left
        b.protocol = right
        a.close()
        assert left.calls == [("lost", a)]
        assert right.calls == [("lost", b)]
        a.close()  # idempotent
        b.close()
        assert left.calls == [("lost", a)]
        assert right.calls == [("lost", b)]

    def test_send_after_own_close_raises(self):
        a, b = StreamSocket.pair("a", "b")
        a.close()
        with pytest.raises(ConnectionReset):
            a.send(b"late")

    def test_queued_close_notifies_both_on_drain(self):
        queue = DeliveryQueue()
        queue.active = True
        left, right = Recorder(), Recorder()
        a, b = StreamSocket.pair("a", "b", queue=queue)
        a.protocol = left
        b.protocol = right
        a.close()
        assert a.closed  # own side stops accepting sends immediately
        assert not b.closed  # peer learns on drain
        assert left.calls == [] and right.calls == []
        queue.drain()
        assert b.closed
        assert left.calls == [("lost", a)]
        assert right.calls == [("lost", b)]
        assert queue.closes == 1


class TestSettleAndDrive:
    def test_settle_noop_without_queue(self):
        a, _b = StreamSocket.pair("a", "b")
        assert list(settle(a)) == []

    def test_settle_noop_with_inactive_queue(self):
        queue = DeliveryQueue()
        a, _b = StreamSocket.pair("a", "b", queue=queue)
        assert list(settle(a)) == []

    def test_settle_yields_once_when_active(self):
        queue = DeliveryQueue()
        queue.active = True
        a, _b = StreamSocket.pair("a", "b", queue=queue)
        assert list(settle(a)) == [None]

    def test_drive_returns_generator_value(self):
        def task():
            yield
            yield
            return 42

        assert drive(task()) == 42


class TestCooperativeLoopGuards:
    """The scheduler's task loop: order, admission, isolation, starvation."""

    def test_round_robin_interleaves(self):
        trace = []

        def task(name, steps):
            for step in range(steps):
                trace.append((name, step))
                yield

        loop = WireScheduler(Network(), max_active=4)
        loop.spawn(lambda: task("a", 2))
        loop.spawn(lambda: task("b", 2))
        loop.run()
        assert trace == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]
        assert loop.completed == 2

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            WireScheduler(Network(), max_active=0)

    def test_deadline_raises_diagnosable_starvation(self):
        def stuck():
            while True:
                yield

        loop = WireScheduler(Network())
        loop.spawn(stuck, label="client-7.example")
        loop.spawn(stuck)  # unlabelled shows as "?"
        with pytest.raises(LoopStarvation) as excinfo:
            loop.run(deadline_ticks=20)
        err = excinfo.value
        assert err.ticks == 20
        assert "client-7.example" in err.stuck
        assert "?" in err.stuck
        assert "client-7.example" in str(err)

    def test_starvation_preview_truncates_long_stuck_lists(self):
        def stuck():
            while True:
                yield

        loop = WireScheduler(Network(), max_active=16)
        for i in range(12):
            loop.spawn(stuck, label=f"t{i}")
        with pytest.raises(LoopStarvation) as excinfo:
            loop.run(deadline_ticks=3)
        assert "..." in str(excinfo.value)
        assert len(excinfo.value.stuck) == 12

    def test_admission_cap_and_peak(self):
        done = []

        def task(i):
            def gen():
                yield
                done.append(i)

            return gen

        loop = WireScheduler(Network(), max_active=3)
        for i in range(10):
            loop.spawn(task(i), label=f"t{i}")
        loop.run()
        assert sorted(done) == list(range(10))
        assert loop.peak_active == 3
        assert loop.completed == 10

    def test_task_failure_counted_and_loop_survives(self):
        seen = []

        def bad():
            yield
            raise ValueError("boom")

        def good():
            yield
            yield

        loop = WireScheduler(
            Network(), on_task_error=lambda task, exc: seen.append(exc)
        )
        loop.spawn(bad, label="bad")
        loop.spawn(good, label="good")
        loop.run()
        assert loop.task_failures == 1
        assert loop.completed == 1
        assert len(seen) == 1 and isinstance(seen[0], ValueError)

    def test_shuffled_ticks_complete_all_tasks(self):
        done = []

        def task(i):
            def gen():
                yield
                yield
                done.append(i)

            return gen

        loop = WireScheduler(Network(), max_active=8, shuffle=random.Random(1234))
        for i in range(8):
            loop.spawn(task(i))
        loop.run()
        assert sorted(done) == list(range(8))


class TestWireScheduler:
    def _echo_world(self):
        net = Network()
        server = net.add_host("echo.example")
        server.listen(7, Echo)
        return net

    def test_multiplexes_clients_with_synchronous_semantics(self):
        net = self._echo_world()
        results = {}

        def client(name):
            host = net.add_host(name)

            def task():
                sock = host.connect("echo.example", 7)
                sock.send(name.encode())
                yield from settle(sock)
                results[name] = sock.recv()
                sock.close()

            return task

        sched = WireScheduler(net, max_active=4)
        names = [f"c{i}.example" for i in range(10)]
        for name in names:
            sched.spawn(client(name), label=name)
        sched.run()
        assert results == {name: name.upper().encode() for name in names}
        assert sched.completed == 10
        assert not net.queue.active  # deactivated after the run
        assert net.queue.delivered >= 10

    def test_queue_deactivated_even_on_starvation(self):
        net = self._echo_world()

        def stuck():
            while True:
                yield

        sched = WireScheduler(net)
        sched.spawn(stuck, label="wedged")
        with pytest.raises(LoopStarvation):
            sched.run(deadline_ticks=4)
        assert not net.queue.active

    def test_serial_and_scheduled_clients_see_identical_bytes(self):
        payloads = [b"alpha", b"beta", b"gamma"]

        def run(scheduled):
            net = self._echo_world()
            host = net.add_host("client.example")
            got = []

            def task(payload):
                def gen():
                    sock = host.connect("echo.example", 7)
                    sock.send(payload)
                    yield from settle(sock)
                    got.append(sock.recv())
                    sock.close()

                return gen

            if scheduled:
                sched = WireScheduler(net, max_active=3)
                for payload in payloads:
                    sched.spawn(task(payload))
                sched.run()
            else:
                for payload in payloads:
                    drive(task(payload)())
            return got

        assert run(scheduled=False) == run(scheduled=True)
