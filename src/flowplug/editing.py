"""Attribute editing: map a stack into the disentangled space, overwrite
attribute coordinates, and map back — plus the classifier-gated search for
the smallest offset the probe accepts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .flow import FlowModel, StyleStack, codes_to_latents, latents_to_codes


@dataclass(frozen=True)
class EditRequest:
    attr_index: int
    target: float
    mode: str = "absolute"

    def __post_init__(self):
        if self.mode not in ("absolute", "step-search"):
            raise ConfigError(f"unknown edit mode {self.mode!r}")
        if not np.isfinite(self.target):
            raise ConfigError("edit target must be finite")


@dataclass
class EditResult:
    """Outcome of a gated edit; ``converged`` distinguishes acceptance from
    running out of steps (the stack is then the last candidate tried)."""

    stack: StyleStack
    steps_used: int
    converged: bool


def _check_attr(model: FlowModel, attr_index: int) -> None:
    if not 0 <= attr_index < model.prior.num_attrs:
        raise ConfigError(f"attr_index {attr_index} out of range [0, {model.prior.num_attrs})")


def _check_stacks(model: FlowModel, stacks: list[StyleStack]) -> None:
    for st in stacks:
        if st.num_codes != model.num_codes or st.code_dim != model.code_dim:
            raise DimensionError("stack dimensions do not match the model")


def batch_latents(model: FlowModel, stacks: list[StyleStack]) -> np.ndarray:
    """(len(stacks), num_codes, code_dim) latents of the stacks, encoded in
    one flow call."""
    _check_stacks(model, stacks)
    k = model.num_codes
    z, _ = codes_to_latents(model, np.concatenate([st.codes for st in stacks]), np.tile(np.arange(k), len(stacks)))
    return z.reshape(len(stacks), k, model.code_dim)


def stack_latents(model: FlowModel, stack: StyleStack) -> np.ndarray:
    """(num_codes, code_dim) latent rows of one stack."""
    return batch_latents(model, [stack])[0]


def _decode(model: FlowModel, latents: np.ndarray, template: StyleStack) -> StyleStack:
    codes, _ = latents_to_codes(model, latents, np.arange(model.num_codes))
    return StyleStack(
        codes=codes, labels=template.labels.copy(), identity_id=template.identity_id, frame_id=template.frame_id
    )


def edit_attribute(model: FlowModel, stack: StyleStack, req: EditRequest) -> StyleStack:
    """Set one attribute coordinate to an absolute target at every layer;
    all other latent coordinates are left bit-identical before inversion."""
    if req.mode != "absolute":
        raise ConfigError("edit_attribute handles absolute targets; use minimal_edit_batch for step-search")
    _check_attr(model, req.attr_index)
    z = stack_latents(model, stack)
    z[:, req.attr_index] = req.target
    return _decode(model, z, stack)


def interpolate_attribute(
    model: FlowModel, stack: StyleStack, attr_index: int, start: float, stop: float, num_points: int
) -> list[StyleStack]:
    """Absolute edits along linearly spaced targets from start to stop."""
    if num_points < 2:
        raise ConfigError("num_points must be at least 2")
    _check_attr(model, attr_index)
    z = stack_latents(model, stack)
    out = []
    for target in np.linspace(start, stop, num_points):
        zi = z.copy()
        zi[:, attr_index] = target
        out.append(_decode(model, zi, stack))
    return out


def minimal_edit_batch(
    model: FlowModel,
    stacks: list[StyleStack],
    attr_index: int,
    direction: int,
    probe,
    tau: float = 0.8,
    delta: float = 0.25,
    max_steps: int = 40,
    *,
    latents: np.ndarray | None = None,
) -> list[EditResult]:
    """Walk each stack's attribute coordinate in shared increments of
    direction*delta (applied at every layer) until the probe's confidence
    for the target class reaches tau. Stacks converge independently: each
    gets the steps it would get in a batch of its own, and codes equal to
    that batch's up to batched-BLAS rounding.

    Step 0 is the unedited stack, so it is gated on the input codes and a
    stack accepted there (or left there by ``max_steps=0``) gets a copy of
    them; decoding starts at step 1. ``latents`` are the stacks' latents
    from ``batch_latents``, for callers that search the same stacks more
    than once; without them the stacks are encoded when step 0 leaves one
    pending."""
    _check_attr(model, attr_index)
    if direction not in (1, -1):
        raise ConfigError("direction must be +1 or -1")
    if delta <= 0 or tau <= 0:
        raise ConfigError("delta and tau must be positive")
    if max_steps < 0:
        raise ConfigError("max_steps must be non-negative")
    if not stacks:
        return []
    _check_stacks(model, stacks)
    k = model.num_codes
    if latents is not None and np.shape(latents) != (len(stacks), k, model.code_dim):
        raise DimensionError(f"latents have shape {np.shape(latents)}, expected {(len(stacks), k, model.code_dim)}")
    results: list[EditResult | None] = [None] * len(stacks)
    pending = np.arange(len(stacks))
    codes = np.stack([st.codes for st in stacks])
    for step in range(max_steps + 1):
        if step > 0:
            if latents is None:
                latents = batch_latents(model, stacks)
            z = latents[pending].copy()
            z[:, :, attr_index] += step * delta * direction
            flat = z.reshape(-1, model.code_dim)
            codes, _ = latents_to_codes(model, flat, np.tile(np.arange(k), len(pending)))
            codes = codes.reshape(len(pending), k, model.code_dim)
        conf = np.asarray(probe.target_confidence(codes, attr_index, direction), dtype=np.float64)
        accepted = conf >= tau
        last_round = step == max_steps
        for j, stack_idx in enumerate(pending):
            if accepted[j] or last_round:
                st = stacks[stack_idx]
                edited = StyleStack(
                    codes=codes[j], labels=st.labels.copy(), identity_id=st.identity_id, frame_id=st.frame_id
                )
                results[stack_idx] = EditResult(stack=edited, steps_used=step if accepted[j] else max_steps,
                                                converged=bool(accepted[j]))
        pending = pending[~accepted]
        if pending.size == 0:
            break
    return results  # type: ignore[return-value]
