"""Shared fixtures: small, fast topologies and chains.

Also ships a minimal stand-in for pytest-timeout: when the plugin is not
installed (the ``timeout`` ini key in pyproject.toml would be inert), a
SIGALRM-based hook enforces the same per-test wall-clock ceiling so a
hung simulator loop fails fast instead of wedging the run. The real
plugin, when present, takes precedence untouched.

Perf guards record their wall-clock rows to the tracked ``BENCH_*.json``
files only under ``--record-bench`` (the ``record_bench`` fixture), so a
plain test run leaves the checkout unmodified.
"""

from __future__ import annotations

import importlib.util
import signal
import threading

import pytest

from repro.netsim import Link, Network, Protocol, Simulator, Topology
from repro.perf import benchstore

ALL_PROTOCOLS = (Protocol.UDP, Protocol.TCP, Protocol.ICMP, Protocol.RAW_IP)

_HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None
_CAN_ALARM = hasattr(signal, "SIGALRM")


def pytest_addoption(parser):
    parser.addoption(
        "--record-bench",
        action="store_true",
        default=False,
        help="append perf-guard rows to the tracked BENCH_*.json files",
    )
    if not _HAVE_PYTEST_TIMEOUT:
        parser.addini(
            "timeout",
            "default per-test timeout in seconds (pytest-timeout fallback)",
            default=None,
        )
        parser.addoption(
            "--timeout",
            action="store",
            default=None,
            help="per-test timeout in seconds (pytest-timeout fallback)",
        )


@pytest.fixture
def record_bench(request):
    """``record_bench(name, rows)`` appends ``rows`` to ``BENCH_<name>.json``
    under ``--record-bench`` and does nothing otherwise."""
    enabled = request.config.getoption("--record-bench")

    def record(bench_name: str, rows: list[dict]) -> None:
        if enabled:
            benchstore.append_rows(bench_name, rows)

    return record


if not _HAVE_PYTEST_TIMEOUT:

    def _timeout_for(item) -> float | None:
        marker = item.get_closest_marker("timeout")
        if marker is not None and marker.args:
            return float(marker.args[0])
        cli = item.config.getoption("--timeout")
        if cli is not None:
            return float(cli)
        ini = item.config.getini("timeout")
        return float(ini) if ini else None

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        limit = _timeout_for(item)
        usable = (
            limit is not None
            and limit > 0
            and _CAN_ALARM
            and threading.current_thread() is threading.main_thread()
        )
        if not usable:
            yield
            return

        def on_alarm(signum, frame):
            pytest.fail(
                f"test exceeded the {limit:.0f}s timeout "
                f"(conftest SIGALRM fallback)",
                pytrace=False,
            )

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def two_as_network():
    """AS1 -10ms- AS2 with a client in AS1 and an echo server in AS2."""
    sim = Simulator()
    topo = Topology()
    topo.make_as(1, seed=1)
    topo.make_as(2, seed=2)
    topo.connect(
        1, 1, 2, 1, Link.symmetric("1-2", base_delay=10e-3, seed=7)
    )
    net = Network(topo, sim, seed=3)
    client = net.make_host(1, "client")
    server = net.make_host(2, "server", echo_protocols=ALL_PROTOCOLS)
    return sim, topo, net, client, server


@pytest.fixture
def three_as_network():
    """AS1 - AS2 - AS3 line, 5 ms links."""
    sim = Simulator()
    topo = Topology()
    for asn in (1, 2, 3):
        topo.make_as(asn, seed=asn)
    topo.connect(1, 2, 2, 1, Link.symmetric("1-2", base_delay=5e-3, seed=11))
    topo.connect(2, 2, 3, 1, Link.symmetric("2-3", base_delay=5e-3, seed=12))
    net = Network(topo, sim, seed=4)
    client = net.make_host(1, "client")
    server = net.make_host(3, "server", echo_protocols=ALL_PROTOCOLS)
    return sim, topo, net, client, server
