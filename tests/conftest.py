"""Session-scoped Ray fixture (ONE ray.init per pytest session, and a
fixture that restarts it), the one switch that forces the shuffle path
of every broadcast gate, the one that forces the graph engine's by-ref
message path and the one that sets its shard host count."""

import pytest


def _ray_init():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    return ray


@pytest.fixture(scope="session")
def ray_session():
    ray = _ray_init()
    yield ray
    ray.shutdown()


@pytest.fixture
def restart_ray(ray_session):
    """Callable that ends the test session's Ray session and starts a
    new one with the same settings (a new local cluster)."""
    def restart():
        ray_session.shutdown()
        _ray_init()

    return restart


@pytest.fixture
def force_shuffle(monkeypatch):
    """Context manager that lowers ``stages.joins.BROADCAST_BUDGET_ROWS``
    to 0 while it is open, so every broadcast-or-shuffle gate inside
    takes its shuffle path; both-paths tests run the default path first
    and the forced one inside ``with force_shuffle():``."""
    import contextlib

    from tldr_ray.stages import joins

    @contextlib.contextmanager
    def forced():
        with monkeypatch.context() as m:
            m.setattr(joins, "BROADCAST_BUDGET_ROWS", 0)
            yield

    return forced


@pytest.fixture
def force_msg_refs(monkeypatch):
    """Context manager that lowers ``graph.engine._MSG_REF_BYTES_DEFAULT``
    to 1 byte while it is open, so the shards of every engine built
    inside ship each superstep message as a plasma ref (the driver only
    relays refs) instead of by value."""
    import contextlib

    import tldr_ray.graph.engine as engine

    @contextlib.contextmanager
    def forced():
        with monkeypatch.context() as m:
            m.setattr(engine, "_MSG_REF_BYTES_DEFAULT", 1)
            yield

    return forced


@pytest.fixture
def force_hosts(monkeypatch):
    """Context manager ``forced(h)`` that replaces
    ``graph.engine._num_hosts`` while it is open, so every engine built
    inside holds its P partitions in min(h, P) shard hosts instead of
    min(P, cluster CPUs)."""
    import contextlib

    import tldr_ray.graph.engine as engine

    @contextlib.contextmanager
    def forced(h: int):
        with monkeypatch.context() as m:
            m.setattr(engine, "_num_hosts", lambda p: min(h, p))
            yield

    return forced
