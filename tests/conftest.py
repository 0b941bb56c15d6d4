"""Fixtures shared across test modules."""

import faulthandler

import pytest


# how long a test that forks may run before the whole run ends with every
# thread's traceback: a hung child or a wait that never returns then fails
# within a minute instead of using up the time budget of the run
HANG_SECONDS = 60


@pytest.fixture
def hang_watchdog():
    """For tests that fork a worker process (training's row worker, the
    evaluation's sweep process): ends the test process with a traceback if
    the test runs HANG_SECONDS."""
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def fail_after_writes(monkeypatch):
    """``fail_after_writes(n)`` makes every file ``atomic_write`` opens from
    then on raise a full-disk OSError on its n-th write, after the earlier
    writes reached the disk."""
    import flowplug.fileio as fileio

    def arm(count):
        def failing_open(file, mode="r", **kwargs):
            handle = open(file, mode, **kwargs)
            real_write, calls = handle.write, []

            def write(text):
                calls.append(text)
                if len(calls) == count:
                    handle.flush()
                    raise OSError("no space left on device")
                return real_write(text)

            handle.write = write
            return handle

        monkeypatch.setattr(fileio, "open", failing_open, raising=False)

    return arm


@pytest.fixture
def flow_rows(monkeypatch):
    """``flow_rows(name)`` wraps ``flowplug.editing.<name>`` (the flow's
    ``codes_to_latents`` or ``latents_to_codes``) and returns the list that
    each later call appends its row count to."""
    import flowplug.editing as editing

    def count(name):
        rows, original = [], getattr(editing, name)

        def counting(model, x, layer_indices):
            rows.append(x.shape[0])
            return original(model, x, layer_indices)

        monkeypatch.setattr(editing, name, counting)
        return rows

    return count
