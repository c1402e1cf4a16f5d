"""From-scratch LSTM sequence model on numpy: forward, exact BPTT, Adam.

The model is a stack of LSTM layers followed by a linear projection to
per-symbol logits. Per layer, with gate order [input | forget | output |
cell] packed along the last axis of the combined matrices:

    a   = x @ w_x + b + m_prev @ w_m      a is (B, 4H)
    i   = sigmoid(a[:, 0H:1H])
    f   = sigmoid(a[:, 1H:2H])
    o   = sigmoid(a[:, 2H:3H])
    g   = tanh(a[:, 3H:4H])
    c   = f * c_prev + i * g
    m   = o * tanh(c)

One cell function, :func:`_cell`, serves both :func:`lstm_step` and the
sequence loop.

Each layer stores one C-contiguous (D + H, 4H) array ``w``, the stack
[w_x; w_m]; ``w_x`` and ``w_m`` are views of its two row blocks. Training
uses the views, so its products, Adam's in-place updates, the gradient
check's perturbations and the checkpoint bytes are those of two separate
arrays. Decoding uses the stack. A one-row step is bound by streaming the
weights, and it reads each layer's weights once, with one product form per
layer position:

    first layer    a = x[:, nz] @ w_x[nz] + b + m_prev @ w_m
    above it       a = [below | m_prev] @ w + b

``nz`` holds the input columns that are nonzero in any row. Decode inputs
are 0/1 with a few ones, so the first layer reads a few rows of ``w_x``
instead of all D; a zero column adds nothing, so this holds for any input.
Above it, one (2H, 4H) product replaces two (H, 4H) ones: on a 2-core Xeon
with OpenBLAS 0.3.31, a matrix-vector product ran on both threads only above
about 4.6e5 elements, which one (H, 4H) block at H=256 is not.

Dropout (inverted, scale 1/keep) is applied to up-going connections only:
each layer's output as it feeds the next layer and the projection. The
recurrent path m_prev is never dropped. A fresh mask is drawn per step from
the rng that the sequence pass is given; :func:`lstm_step` (decoding) never
drops.

Sequences are time-major batches: inputs (T, B, D), integer targets (T, B),
optional validity mask (T, B) for padded batches; one sequence is a batch of
one. The loss is the mean negative log-likelihood over valid steps. Inputs
are 0/1 and may have any numeric dtype (training batches are uint8): each row
block of the first layer's input is cast to float64 just before its GEMM.

The sequence pass runs layer by layer over a layer-major (L, T, B, .) cache.
Only ``m_prev @ w_m`` (forward) and ``da @ w_m.T`` (backward) stay in the time
loop; the input and output projections and the weight gradients are GEMMs
over all T*B rows, in blocks of ``GEMM_ROWS``. One buffer, ``probs``, holds
the logits until each row block's :func:`log_softmax` turns them into log p
in place, and then p; no exp goes through the scratch block. Backward
forms the logit gradients over the cached probabilities and the gate
gradients over the cached gates, so :func:`backward` consumes its cache, and
``ForwardResult.probs`` holds p only until then; the gradient reaching a
layer from above is computed one row block at a time, as the reverse time
loop reaches it.

A ``workspace`` dict lets consecutive passes reuse their buffers: the padded
batch, dropout masks, gates, cells, outputs, probs and one row block of
scratch (which backward also uses for the up-going gradient). Arrays taken
from a workspace are views, valid until the next pass through it. A training
run keeps one workspace for its steps and its evaluations alike: every pass
writes each buffer before reading it, so a pass gives the same bits on
reused buffers as on fresh ones. Adam updates its moments in place and works
in blocks of rows, so that its temporaries stay small beside the workspace.

Checkpoints hold the parameters and the layer count; optimizer state is not
saved.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import require
from .container import load_arrays, save_arrays

DEFAULT_INIT_SCALE = 0.08
FORGET_BIAS = 1.0
# Adam's moment decay rates and denominator floor, as Kingma and Ba suggest.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# Elements per block of the Adam update.
ADAM_BLOCK = 1 << 16


def log_softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Stable log-softmax over the last axis, written into ``out`` if given
    (which may be ``logits`` itself); the values are the same either way."""
    out = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    out -= np.log(np.exp(out).sum(axis=-1, keepdims=True))
    return out


class LstmLayerParams:
    """One LSTM layer's combined-gate weights.

    ``w`` (input_dim + hidden, 4*hidden) stacks the input weights over the
    recurrent ones; the constructor keeps it and ``b`` without copying.
    ``w_x`` and ``w_m`` are its two row blocks, views that share its memory:
    writing through them writes ``w``, and they cannot be rebound.
    """

    def __init__(self, w: np.ndarray, b: np.ndarray) -> None:
        hidden = b.size // 4
        expected = (4 * hidden, (4 * hidden,))
        if w.ndim != 2 or w.shape[0] < hidden or (w.shape[1], b.shape) != expected:
            raise ValueError(f"LSTM layer arrays w {w.shape} and b {b.shape} "
                             "do not share one hidden size")
        self.w = w
        self.b = b

    @property
    def hidden_size(self) -> int:
        return self.w.shape[1] // 4

    @property
    def input_dim(self) -> int:
        return self.w.shape[0] - self.hidden_size

    @property
    def w_x(self) -> np.ndarray:
        """(input_dim, 4*hidden), the first rows of ``w``."""
        return self.w[: self.input_dim]

    @property
    def w_m(self) -> np.ndarray:
        """(hidden, 4*hidden), the last rows of ``w``."""
        return self.w[self.input_dim :]


@dataclass
class GeneratorParams:
    """All trainable arrays for one sequence generator."""

    layers: list[LstmLayerParams]
    w_out: np.ndarray  # (hidden, n_outputs)
    b_out: np.ndarray  # (n_outputs,)

    def __post_init__(self) -> None:
        """Every layer has one hidden size H, each above the first takes H
        inputs, and the projection maps H to ``b_out.size`` outputs."""
        if not self.layers:
            raise ValueError("at least one LSTM layer is required")
        hidden = self.hidden_size
        for index, layer in enumerate(self.layers):
            if layer.hidden_size != hidden or (index and layer.input_dim != hidden):
                raise ValueError(f"LSTM layer {index} takes {layer.input_dim} inputs to hidden "
                                 f"size {layer.hidden_size}; every layer has layer 0's hidden "
                                 f"size {hidden}, and each above it takes that many inputs")
        if self.w_out.shape != (hidden, *self.b_out.shape):
            raise ValueError(f"output arrays w_out {self.w_out.shape} and b_out "
                             f"{self.b_out.shape} do not map hidden size {hidden} to "
                             "one output count")

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim

    @property
    def hidden_size(self) -> int:
        return self.layers[0].hidden_size

    @property
    def n_outputs(self) -> int:
        return self.w_out.shape[1]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Stable (name, array) pairs; the canonical parameter ordering."""
        pairs: list[tuple[str, np.ndarray]] = []
        for index, layer in enumerate(self.layers):
            pairs.append((f"lstm{index}.w_x", layer.w_x))
            pairs.append((f"lstm{index}.w_m", layer.w_m))
            pairs.append((f"lstm{index}.b", layer.b))
        pairs.append(("w_out", self.w_out))
        pairs.append(("b_out", self.b_out))
        return pairs

    def copy(self) -> "GeneratorParams":
        return GeneratorParams(
            layers=[LstmLayerParams(l.w.copy(), l.b.copy()) for l in self.layers],
            w_out=self.w_out.copy(),
            b_out=self.b_out.copy(),
        )


def init_params(
    input_dim: int,
    hidden_size: int,
    n_outputs: int,
    *,
    n_layers: int = 2,
    seed: int = 0,
) -> GeneratorParams:
    """Seeded initialization: uniform weights, zero biases but forget biases of
    ``FORGET_BIAS``.

    Weights draw from uniform(-DEFAULT_INIT_SCALE, DEFAULT_INIT_SCALE) in a
    fixed order, so the same seed always produces the same parameters.
    """
    if min(input_dim, hidden_size, n_outputs, n_layers) < 1:
        raise ValueError("model dimensions must be positive")
    rng = np.random.default_rng(seed)
    scale = DEFAULT_INIT_SCALE
    layers = []
    for index in range(n_layers):
        d = input_dim if index == 0 else hidden_size
        # One draw of the stack gives the values of w_x's draw, then w_m's.
        w = rng.uniform(-scale, scale, size=(d + hidden_size, 4 * hidden_size))
        b = np.zeros(4 * hidden_size)
        b[hidden_size : 2 * hidden_size] = FORGET_BIAS
        layers.append(LstmLayerParams(w, b))
    w_out = rng.uniform(-scale, scale, size=(hidden_size, n_outputs))
    b_out = np.zeros(n_outputs)
    return GeneratorParams(layers, w_out, b_out)


@dataclass
class LstmState:
    """Cell and output state for every layer: arrays of shape (L, B, H)."""

    c: np.ndarray
    m: np.ndarray

    @classmethod
    def zeros(cls, params: GeneratorParams, batch_size: int) -> "LstmState":
        shape = (params.n_layers, batch_size, params.hidden_size)
        return cls(np.zeros(shape), np.zeros(shape))


@functools.lru_cache(maxsize=16)
def _gate_scale_shift(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (4H,) gate scale and shift: 0.5, 0.5 on i, f, o; 1.0, -0.0 on g."""
    scale, shift = np.repeat([[0.5, 0.5, 0.5, 1.0], [0.5, 0.5, 0.5, -0.0]], hidden, axis=1)
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def _cell(a: np.ndarray, c_prev: np.ndarray, c: np.ndarray, m: np.ndarray) -> None:
    """One step of one layer in place: the gate pre-activations ``a`` (B, 4H)
    become the activations [i | f | o | g]; c and m receive the new state.
    One ``tanh`` pass serves all four; i, f, o get ``0.5 * tanh(z / 2) + 0.5``, within
    2**-53, never overflowing, rounded as ``(tanh(z / 2) + 1) / 2`` since halving is exact."""
    hidden = c.shape[-1]
    scale, shift = _gate_scale_shift(hidden)
    a *= scale
    np.tanh(a, out=a)
    a *= scale
    a += shift
    i, f, o, g = (a[:, k * hidden : (k + 1) * hidden] for k in range(4))
    np.multiply(f, c_prev, out=c)
    c += i * g
    np.tanh(c, out=m)
    m *= o


def lstm_step(
    params: GeneratorParams,
    x: np.ndarray,
    state: LstmState | None = None,
) -> tuple[LstmState, np.ndarray]:
    """Advance one step. x is (B, D) or (D,); returns (new state, logits).

    Each layer reads its weights once. The first multiplies only the input
    columns that are nonzero in some row, by those rows of ``w_x``; every
    layer above it multiplies ``[below | m_prev]`` by its stacked ``w``.
    """
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[1] != params.input_dim:
        raise ValueError(f"input has {x.shape[1]} features, the model takes {params.input_dim}")
    batch = x.shape[0]
    if state is None:
        state = LstmState.zeros(params, batch)
    new_c = np.empty_like(state.c)
    new_m = np.empty_like(state.m)
    first = params.layers[0]
    nz = x.any(axis=0).nonzero()[0]
    a = x.take(nz, axis=1) @ first.w.take(nz, axis=0)  # rows nz of w_x
    a += first.b
    a += state.m[0] @ first.w_m
    _cell(a, state.c[0], new_c[0], new_m[0])
    for index, layer in enumerate(params.layers[1:], 1):
        a = np.concatenate((new_m[index - 1], state.m[index]), axis=1) @ layer.w
        a += layer.b
        _cell(a, state.c[index], new_c[index], new_m[index])
    logits = new_m[-1] @ params.w_out + params.b_out
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits; model state diverged")
    return LstmState(new_c, new_m), logits[0] if squeeze else logits


@dataclass
class ForwardResult:
    loss: float
    probs: np.ndarray  # (T, B, K)
    n_valid: int
    cache: dict | None = None


def take_buffer(
    workspace: dict,
    name: str,
    shape: tuple[int, ...],
    dtype=np.float64,
    *,
    steps: int | None = None,
) -> np.ndarray:
    """An uninitialized C-contiguous array, a view of ``workspace[name]``.

    The stored buffer is replaced when it is too small or of another dtype.
    A ``shape`` that spans ``steps`` time steps gets room for the
    workspace's ``"max_steps"``, so that later, longer batches fit. The
    workspace counts its ``"takes"``, by which :func:`backward` tells that
    a cache's buffers were handed out again.
    """
    size = math.prod(shape)
    workspace["takes"] = workspace.get("takes", 0) + 1
    store = workspace.get(name)
    if store is None or store.dtype != dtype or store.size < size:
        room = size
        if steps:
            room = size // steps * max(steps, workspace.get("max_steps", 0))
        store = workspace[name] = np.empty(room, dtype)
    return store[:size].reshape(shape)


def make_dropout_masks(
    rng: np.random.Generator,
    dropout: float,
    steps: int,
    n_layers: int,
    batch: int,
    hidden: int,
    *,
    out: np.ndarray,
) -> np.ndarray:
    """Inverted-dropout masks of shape (T, L, B, H), values in {0, 1/keep}.

    Drawn into ``out`` one row block of steps at a time; the generator
    yields the same values as one (T, L, B, H) draw.
    """
    keep = 1.0 - dropout
    for s in _row_blocks(steps, batch):
        block = out[s]
        rng.random(out=block)
        np.divide(block < keep, keep, out=block)
    return out


# Rows per hoisted GEMM. At the CLI note shape (8192 rows), one unblocked GEMM
# was no faster than blocks of 512-1024 rows and took 11 MB more peak memory.
GEMM_ROWS = 1024


def _row_blocks(steps: int, batch: int) -> list[slice]:
    per = max(1, GEMM_ROWS // batch)
    return [slice(t, min(t + per, steps)) for t in range(0, steps, per)]


def _block_scratch(space: dict, steps: int, batch: int, width: int) -> np.ndarray:
    """Flat room for one row block of ``width`` float64 columns."""
    return take_buffer(space, "rows", (_row_blocks(steps, batch)[0].stop * batch * width,))


def _rows(x, scale, s, scratch) -> np.ndarray:
    """Row block ``s`` of x as float64, times the dropout scale if given.

    A block that is not already a float64 view is written to ``scratch``.
    """
    block = x[s]
    if scale is None and block.dtype == np.float64:
        return block
    rows = scratch[: block.size].reshape(block.shape)
    if scale is None:
        np.copyto(rows, block)
    else:
        np.multiply(block, scale[s], out=rows)
    return rows


def _project(x, scale, w, out, scratch, b) -> None:
    """out = (x * scale) @ w + b over (T, B, .) arrays; scale may be None."""
    for s in _row_blocks(*x.shape[:2]):
        block = out[s].reshape(-1, w.shape[1])
        np.matmul(_rows(x, scale, s, scratch).reshape(-1, w.shape[0]), w, out=block)
        block += b


def _weight_grad(x, scale, d, out, scratch) -> None:
    """out += (x * scale)^T @ d, summed over all T*B rows; scale may be None."""
    for s in _row_blocks(*x.shape[:2]):
        rows = _rows(x, scale, s, scratch)
        out += rows.reshape(-1, out.shape[0]).T @ d[s].reshape(-1, out.shape[1])


def _feeds(inputs, outs, dropout_masks) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """(input, dropout mask) of each layer, then of the output projection."""
    masks = [None if dropout_masks is None else dropout_masks[:, l] for l in range(len(outs))]
    return list(zip([inputs, *outs], [None, *masks]))


def forward_sequence(
    params: GeneratorParams,
    inputs: np.ndarray,
    targets: np.ndarray,
    *,
    mask: np.ndarray | None = None,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    collect_cache: bool = True,
    workspace: dict | None = None,
) -> ForwardResult:
    """Teacher-forced forward pass over a (T, B, D) batch.

    Returns the mean negative log-likelihood over valid steps and per-step
    probabilities. With ``dropout`` above 0, the (T, L, B, H) masks are drawn
    from ``rng`` by :func:`make_dropout_masks`. With ``collect_cache`` the
    result carries everything :func:`backward` needs, once. With a
    ``workspace`` the pass takes its buffers from it (see :func:`take_buffer`),
    so the probabilities and the cache last until the next pass through the
    same workspace.
    """
    if inputs.ndim != 3:
        raise ValueError("inputs must be (T, B, D)")
    steps, batch, _ = inputs.shape
    if steps == 0:
        raise ValueError("cannot run a forward pass on an empty sequence")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (steps, batch):
        raise ValueError(f"targets shape {targets.shape} != {(steps, batch)}")
    if mask is None:
        mask = np.ones((steps, batch))
    mask = np.asarray(mask, dtype=np.float64)
    n_valid = int(round(mask.sum()))
    if n_valid == 0:
        raise ValueError("mask leaves no valid steps")
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout {dropout} outside [0, 1)")
    n_layers, hidden = params.n_layers, params.hidden_size
    space = {} if workspace is None else workspace
    dropout_masks = None
    if dropout > 0.0:
        if rng is None:
            raise ValueError("dropout requires an rng")
        shape = (steps, n_layers, batch, hidden)
        dropout_masks = make_dropout_masks(
            rng, dropout, *shape, out=take_buffer(space, "dropout_masks", shape, steps=steps)
        )

    # Without a cache all layers share one set of buffers: a layer's input
    # projection reads every output of the layer below before its time loop
    # overwrites them.
    kept = n_layers if collect_cache else 1
    gates = take_buffer(space, "gates", (kept, steps, batch, 4 * hidden), steps=steps)
    cells = take_buffer(space, "cells", (kept, steps, batch, hidden), steps=steps)
    outs = take_buffer(space, "outs", (kept, steps, batch, hidden), steps=steps)
    layer_outs = [outs[l % kept] for l in range(n_layers)]
    feeds = _feeds(inputs, layer_outs, dropout_masks)
    scratch = _block_scratch(space, steps, batch, max(inputs.shape[2], hidden))
    zeros = np.zeros((batch, hidden))
    recurrent = np.empty((batch, 4 * hidden))
    for l, layer in enumerate(params.layers):
        a, c, m = gates[l % kept], cells[l % kept], layer_outs[l]
        _project(*feeds[l], layer.w_x, a, scratch, layer.b)
        w_m = layer.w_m
        for t in range(steps):
            if t:
                a[t] += np.matmul(m[t - 1], w_m, out=recurrent)
            _cell(a[t], c[t - 1] if t else zeros, c[t], m[t])
    probs = take_buffer(space, "probs", (steps, batch, params.n_outputs), steps=steps)
    _project(*feeds[-1], params.w_out, probs, scratch, params.b_out)

    for s in _row_blocks(steps, batch):
        log_softmax(probs[s], out=probs[s])
    picked = np.take_along_axis(probs, targets[:, :, None], axis=2)[:, :, 0]
    np.exp(probs, out=probs)
    loss = float(-(picked * mask).sum() / n_valid)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss; training diverged")

    # The workspace rides in the cache for backward's buffers; it is not an
    # array, so the cache's arrays are exactly what backward reads.
    cache = None if not collect_cache else dict(
        inputs=inputs, targets=targets, mask=mask, n_valid=n_valid, gates=gates,
        cells=cells, outs=outs, dropout_masks=dropout_masks, probs=probs, consumed=False,
        workspace=space, takes=space["takes"],
    )
    return ForwardResult(loss=loss, probs=probs, n_valid=n_valid, cache=cache)


def backward(params: GeneratorParams, cache: dict) -> dict[str, np.ndarray]:
    """Exact gradients of the mean NLL from a cached forward pass.

    The logit and gate gradients overwrite the cached probabilities and gate
    activations, so a cache serves one call only; a second call raises
    ``ValueError``, as does a call after the cache's workspace has handed its
    buffers out again.
    """
    if cache["consumed"]:
        raise ValueError("forward cache already consumed: backward overwrote its probabilities "
                         "and gates with their gradients; run forward_sequence again")
    space = cache["workspace"]
    if space["takes"] != cache["takes"]:
        raise ValueError("forward cache outdated: its workspace was used again after "
                         "forward_sequence; run backward before the next pass")
    cache["consumed"] = True
    inputs, gates, cells, outs = (cache[k] for k in ("inputs", "gates", "cells", "outs"))
    feeds = _feeds(inputs, outs, cache["dropout_masks"])
    steps, batch, dim = inputs.shape
    hidden = params.hidden_size
    scratch = _block_scratch(space, steps, batch, max(dim, hidden))

    dlogits = cache["probs"]
    dlogits[np.arange(steps)[:, None], np.arange(batch), cache["targets"]] -= 1.0
    dlogits *= (cache["mask"] / cache["n_valid"])[:, :, None]

    grads = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
    _weight_grad(*feeds[-1], dlogits, grads["w_out"], scratch)
    grads["b_out"] = dlogits.sum(axis=(0, 1))

    # Gradient flowing into each layer's output via the up-going connection,
    # one row block at a time. It shares the scratch block, which the weight
    # gradients use only outside the time loops.
    blocks = _row_blocks(steps, batch)
    dm_block = scratch[: blocks[0].stop * batch * hidden].reshape(blocks[0].stop, batch, hidden)
    up_w, up_d = params.w_out, dlogits
    zeros = np.zeros((batch, hidden))
    for l in range(params.n_layers - 1, -1, -1):
        up_mask = feeds[l + 1][1]
        layer = params.layers[l]
        w_m_t = layer.w_m.T
        dm_rec, dc_rec = np.zeros((batch, hidden)), zeros
        for t in range(steps - 1, -1, -1):
            block = blocks[t // blocks[0].stop]
            if t == block.stop - 1:
                dm_up = dm_block[: block.stop - block.start]
                np.matmul(up_d[block].reshape(-1, up_w.shape[1]), up_w.T,
                          out=dm_up.reshape(-1, hidden))
                if up_mask is not None:
                    dm_up *= up_mask[block]
            a = gates[l, t]
            i, f, o, g = (a[:, k * hidden : (k + 1) * hidden] for k in range(4))
            c_prev = cells[l, t - 1] if t else zeros
            h_c = np.tanh(cells[l, t])
            dm_total = dm_up[t - block.start]
            dm_total += dm_rec
            dc = dm_total * o * (1.0 - h_c * h_c)
            dc += dc_rec
            dc_rec = dc * f
            da_i = dc * g * i * (1.0 - i)
            o[...] = dm_total * h_c * o * (1.0 - o)
            f[...] = dc * c_prev * f * (1.0 - f)
            g[...] = dc * i * (1.0 - g * g)
            i[...] = da_i
            if t:
                np.matmul(a, w_m_t, out=dm_rec)
        da = up_d = gates[l]
        up_w = layer.w_x
        grads[f"lstm{l}.b"] = da.sum(axis=(0, 1))
        _weight_grad(*feeds[l], da, grads[f"lstm{l}.w_x"], scratch)
        _weight_grad(outs[l, :-1], None, da[1:], grads[f"lstm{l}.w_m"], scratch)
    return grads


def loss_and_grads(
    params: GeneratorParams,
    inputs: np.ndarray,
    targets: np.ndarray,
    *,
    mask: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """Loss, gradients and probabilities of one forward and backward pass."""
    result = forward_sequence(params, inputs, targets, mask=mask)
    probs = result.probs.copy()
    return result.loss, backward(params, result.cache), probs


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place if their joint L2 norm exceeds max_norm."""
    total = 0.0
    for arr in grads.values():
        total += float((arr * arr).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for arr in grads.values():
            arr *= scale
    return norm


@dataclass
class AdamState:
    """Bias-corrected Adam moments for every named parameter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    learning_rate: float = 1e-3


def init_adam(params: GeneratorParams, *, learning_rate: float = 1e-3) -> AdamState:
    zeros = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
    return AdamState(
        m=zeros,
        v={name: arr.copy() for name, arr in zeros.items()},
        learning_rate=learning_rate,
    )


def adam_update(
    params: GeneratorParams, grads: dict[str, np.ndarray], state: AdamState
) -> GeneratorParams:
    """One in-place Adam step: theta -= lr * mhat / (sqrt(vhat) + eps)."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    for name, arr in params.named_arrays():
        # Blocks of rows keep the temporaries small beside a step's buffers.
        per = max(1, ADAM_BLOCK // (arr[0].size if arr.ndim > 1 else 1))
        for s in (slice(i, i + per) for i in range(0, len(arr), per)):
            g, m, v = grads[name][s], state.m[name][s], state.v[name][s]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            m_hat = m / bias1
            v_hat = v / bias2
            arr[s] -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return params


@dataclass
class GradCheckReport:
    max_rel_error: float
    n_checked: int
    worst_name: str
    worst_index: int
    worst_analytic: float
    worst_numeric: float


def grad_check(
    params: GeneratorParams,
    inputs: np.ndarray,
    targets: np.ndarray,
    *,
    mask: np.ndarray | None = None,
    n_samples: int = 200,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Samples coordinates uniformly across all parameter arrays. The relative
    error is |analytic - numeric| / max(|analytic|, |numeric|, 1e-6). The
    1e-6 denominator floor reflects the precision limit of the oracle, not
    of the gradients: central differences on a double-precision loss of
    order 1 carry ~1e-11 of rounding noise at delta=1e-5, so coordinates
    whose true gradient is below ~1e-7 cannot be certified in relative
    terms at all. Against the floor they are still certified to an
    absolute 1e-10 per unit of tolerance, which any structural bug (wrong
    sign, dropped term, misrouted state) exceeds by many orders.
    """
    delta = 1e-5

    def loss() -> float:
        return forward_sequence(params, inputs, targets, mask=mask, collect_cache=False).loss

    grads = backward(params, forward_sequence(params, inputs, targets, mask=mask).cache)
    named = params.named_arrays()
    sizes = np.array([arr.size for _, arr in named])
    total = int(sizes.sum())
    rng = np.random.default_rng(seed)
    chosen = rng.choice(total, size=min(n_samples, total), replace=False)
    boundaries = np.cumsum(sizes)

    report = GradCheckReport(0.0, len(chosen), "", -1, 0.0, 0.0)
    for flat in chosen:
        which = int(np.searchsorted(boundaries, flat, side="right"))
        name, arr = named[which]
        index = int(flat - (boundaries[which - 1] if which else 0))
        original = arr.flat[index]
        arr.flat[index] = original + delta
        loss_plus = loss()
        arr.flat[index] = original - delta
        loss_minus = loss()
        arr.flat[index] = original
        numeric = (loss_plus - loss_minus) / (2.0 * delta)
        analytic = float(grads[name].flat[index])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        if rel > report.max_rel_error:
            report.max_rel_error = rel
            report.worst_name = name
            report.worst_index = index
            report.worst_analytic = analytic
            report.worst_numeric = numeric
    return report


@dataclass
class TrainConfig:
    """Optimization settings for one generator layer."""

    max_iterations: int = 2000
    batch_size: int = 64
    dropout: float = 0.5
    learning_rate: float = 1e-3
    eval_every: int = 20
    patience: int = 5
    hidden_size: int = 256
    n_lstm_layers: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        if self.n_lstm_layers < 1:
            raise ValueError("n_lstm_layers must be >= 1")


CHECKPOINT_META_KEY = "generator"


def save_checkpoint(path: str | Path, params: GeneratorParams) -> None:
    """Write the parameters deterministically."""
    header = {CHECKPOINT_META_KEY: {"n_layers": params.n_layers}}
    save_arrays(path, dict(params.named_arrays()), header)


def load_checkpoint(path: str | Path) -> GeneratorParams:
    """Parameters that own their memory; the stored arrays are views of the
    file's bytes."""
    arrays, header = load_arrays(path)
    info = require(header, CHECKPOINT_META_KEY, dict)
    # Older checkpoints record their cell activation; only tanh cells remain.
    activation = info.get("cell_activation", "tanh")
    if activation != "tanh":
        raise ValueError(f"checkpoint uses the {activation!r} cell activation; "
                         "only 'tanh' cells are supported")
    layers = []
    for index in range(require(info, "n_layers", int)):
        w_x, w_m, b = (arrays[f"lstm{index}.{part}"] for part in ("w_x", "w_m", "b"))
        if w_m.shape[0] != b.size // 4:
            raise ValueError(f"checkpoint layer {index}: w_m {w_m.shape} and b {b.shape} "
                             "do not share one hidden size")
        layers.append(LstmLayerParams(np.concatenate((w_x, w_m)), b.copy()))
    return GeneratorParams(layers, arrays["w_out"].copy(), arrays["b_out"].copy())
