"""Straight-line LSTM reference: separate gate matrices, one batch row at
a time, textbook formulas, for the forward pass and for BPTT. No code is
shared with melodygen.neural beyond the parameter container it reads from."""

from __future__ import annotations

import math

import numpy as np


class _GateWeights:
    """One layer's weights, split into the four per-gate matrices."""

    def __init__(self, w_x: np.ndarray, w_m: np.ndarray, b: np.ndarray):
        hidden = w_m.shape[0]
        self.wxi, self.wxf, self.wxo, self.wxg = (
            w_x[:, 0 * hidden : 1 * hidden],
            w_x[:, 1 * hidden : 2 * hidden],
            w_x[:, 2 * hidden : 3 * hidden],
            w_x[:, 3 * hidden : 4 * hidden],
        )
        self.wmi, self.wmf, self.wmo, self.wmg = (
            w_m[:, 0 * hidden : 1 * hidden],
            w_m[:, 1 * hidden : 2 * hidden],
            w_m[:, 2 * hidden : 3 * hidden],
            w_m[:, 3 * hidden : 4 * hidden],
        )
        self.bi = b[0 * hidden : 1 * hidden]
        self.bf = b[1 * hidden : 2 * hidden]
        self.bo = b[2 * hidden : 3 * hidden]
        self.bg = b[3 * hidden : 4 * hidden]
        self.hidden = hidden


def _logistic(vec: np.ndarray) -> np.ndarray:
    return np.array([1.0 / (1.0 + math.exp(-float(value))) for value in vec])


def _tanh_vec(vec: np.ndarray) -> np.ndarray:
    return np.array([math.tanh(float(value)) for value in vec])


def reference_forward(
    params,
    inputs: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray | None = None,
    dropout_masks: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Per-step logits (T, B, K) and mean NLL over valid steps.

    ``params`` is a melodygen GeneratorParams; only its raw arrays are read.
    ``dropout_masks`` (T, L, B, H) multiplies each layer's output on the way
    up, exactly like the library's inverted dropout.
    """
    steps, batch, _ = inputs.shape
    layers = [_GateWeights(l.w_x, l.w_m, l.b) for l in params.layers]
    n_out = params.w_out.shape[1]

    logits = np.zeros((steps, batch, n_out))
    for row in range(batch):
        c = [np.zeros(l.hidden) for l in layers]
        m = [np.zeros(l.hidden) for l in layers]
        for t in range(steps):
            below = inputs[t, row]
            for li, lay in enumerate(layers):
                i = _logistic(below @ lay.wxi + m[li] @ lay.wmi + lay.bi)
                f = _logistic(below @ lay.wxf + m[li] @ lay.wmf + lay.bf)
                o = _logistic(below @ lay.wxo + m[li] @ lay.wmo + lay.bo)
                g = _tanh_vec(below @ lay.wxg + m[li] @ lay.wmg + lay.bg)
                c[li] = f * c[li] + i * g
                m[li] = o * _tanh_vec(c[li])
                below = m[li]
                if dropout_masks is not None:
                    below = below * dropout_masks[t, li, row]
            logits[t, row] = below @ params.w_out + params.b_out

    if mask is None:
        mask = np.ones((steps, batch))
    total = 0.0
    count = 0
    for t in range(steps):
        for row in range(batch):
            if mask[t, row] == 0:
                continue
            z = logits[t, row]
            zmax = float(z.max())
            log_norm = zmax + math.log(sum(math.exp(float(v) - zmax) for v in z))
            total += log_norm - float(z[int(targets[t, row])])
            count += 1
    return logits, total / count


def reference_backward(
    params,
    inputs: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray | None = None,
    dropout_masks: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Gradients of :func:`reference_forward`'s mean NLL by textbook BPTT.

    One batch row at a time: a forward sweep records every gate, then the
    backward sweep visits steps from last to first and, within a step, layers
    from top to bottom, so each (step, layer) sees the gradient from the layer
    above at the same step and from its own layer one step later. Keys match
    ``GeneratorParams.named_arrays``.
    """
    steps, batch, _ = inputs.shape
    layers = [_GateWeights(l.w_x, l.w_m, l.b) for l in params.layers]
    n_layers = len(layers)
    top = n_layers - 1
    if mask is None:
        mask = np.ones((steps, batch))
    count = int(sum(1 for t in range(steps) for row in range(batch) if mask[t, row] != 0))

    def drop(t, li, row):
        return 1.0 if dropout_masks is None else dropout_masks[t, li, row]

    gate_names = ("i", "f", "o", "g")
    d_wx = [{k: np.zeros((params.layers[li].w_x.shape[0], lay.hidden)) for k in gate_names}
            for li, lay in enumerate(layers)]
    d_wm = [{k: np.zeros((lay.hidden, lay.hidden)) for k in gate_names} for lay in layers]
    d_b = [{k: np.zeros(lay.hidden) for k in gate_names} for lay in layers]
    d_wout = np.zeros_like(params.w_out)
    d_bout = np.zeros_like(params.b_out)

    for row in range(batch):
        # Forward sweep, keeping each step's per-layer record.
        rec = [[None] * n_layers for _ in range(steps)]
        tops = []
        c = [np.zeros(l.hidden) for l in layers]
        m = [np.zeros(l.hidden) for l in layers]
        for t in range(steps):
            below = inputs[t, row]
            for li, lay in enumerate(layers):
                i = _logistic(below @ lay.wxi + m[li] @ lay.wmi + lay.bi)
                f = _logistic(below @ lay.wxf + m[li] @ lay.wmf + lay.bf)
                o = _logistic(below @ lay.wxo + m[li] @ lay.wmo + lay.bo)
                g = _tanh_vec(below @ lay.wxg + m[li] @ lay.wmg + lay.bg)
                c_new = f * c[li] + i * g
                h = _tanh_vec(c_new)
                rec[t][li] = dict(x=below, m_prev=m[li], c_prev=c[li],
                                  i=i, f=f, o=o, g=g, c=c_new, h=h)
                c[li] = c_new
                m[li] = o * h
                below = m[li] * drop(t, li, row)
            tops.append(below)

        # Backward sweep.
        dm_next = [np.zeros(l.hidden) for l in layers]
        dc_next = [np.zeros(l.hidden) for l in layers]
        for t in range(steps - 1, -1, -1):
            z = tops[t] @ params.w_out + params.b_out
            zmax = float(z.max())
            expz = np.array([math.exp(float(v) - zmax) for v in z])
            dz = expz / expz.sum()
            dz[int(targets[t, row])] -= 1.0
            dz *= (1.0 if mask[t, row] != 0 else 0.0) / count
            d_wout += np.outer(tops[t], dz)
            d_bout += dz
            dm_from_above = (params.w_out @ dz) * drop(t, top, row)
            for li in range(top, -1, -1):
                lay, r = layers[li], rec[t][li]
                dm = dm_from_above + dm_next[li]
                dh = dm * r["o"]
                dcell = dh * (1.0 - r["h"] * r["h"])
                dcell = dcell + dc_next[li]
                da = {
                    "i": dcell * r["g"] * r["i"] * (1.0 - r["i"]),
                    "f": dcell * r["c_prev"] * r["f"] * (1.0 - r["f"]),
                    "o": dm * r["h"] * r["o"] * (1.0 - r["o"]),
                    "g": dcell * r["i"] * (1.0 - r["g"] * r["g"]),
                }
                wx = {"i": lay.wxi, "f": lay.wxf, "o": lay.wxo, "g": lay.wxg}
                wm = {"i": lay.wmi, "f": lay.wmf, "o": lay.wmo, "g": lay.wmg}
                dx = np.zeros(len(r["x"]))
                dm_prev = np.zeros(lay.hidden)
                for k in gate_names:
                    d_wx[li][k] += np.outer(r["x"], da[k])
                    d_wm[li][k] += np.outer(r["m_prev"], da[k])
                    d_b[li][k] += da[k]
                    dx += wx[k] @ da[k]
                    dm_prev += wm[k] @ da[k]
                dm_next[li] = dm_prev
                dc_next[li] = dcell * r["f"]
                if li > 0:
                    dm_from_above = dx * drop(t, li - 1, row)

    grads = {}
    for li in range(n_layers):
        grads[f"lstm{li}.w_x"] = np.hstack([d_wx[li][k] for k in gate_names])
        grads[f"lstm{li}.w_m"] = np.hstack([d_wm[li][k] for k in gate_names])
        grads[f"lstm{li}.b"] = np.concatenate([d_b[li][k] for k in gate_names])
    grads["w_out"] = d_wout
    grads["b_out"] = d_bout
    return grads
