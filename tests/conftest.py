"""Fixtures shared across test modules."""

import pytest


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
