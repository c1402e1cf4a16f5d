"""The numpy LSTM: forward against an independent oracle, exact gradients
against finite differences, Adam, clipping, and checkpoints."""

from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from melodygen import neural
from melodygen.container import load_arrays, save_arrays
from melodygen.hrnn.datasets import TrainingSequence, pad_batch
from melodygen.neural import (
    DEFAULT_INIT_SCALE,
    GeneratorParams,
    LstmLayerParams,
    LstmState,
    TrainConfig,
    adam_update,
    backward,
    clip_global_norm,
    forward_sequence,
    grad_check,
    init_adam,
    init_params,
    load_checkpoint,
    loss_and_grads,
    lstm_step,
    make_dropout_masks,
    save_checkpoint,
    log_softmax,
    take_buffer,
)
from support.lstm_oracle import reference_backward, reference_forward


def tiny_params(din=6, hidden=5, nout=7, layers=2, seed=0):
    return init_params(din, hidden, nout, n_layers=layers, seed=seed)


def random_batch(rng, steps, batch, din, nout):
    inputs = rng.normal(size=(steps, batch, din))
    targets = rng.integers(0, nout, size=(steps, batch))
    return inputs, targets


def gate_activations(z) -> np.ndarray:
    """(B, 4) activations [i | f | o | g] that ``_cell`` makes of a one-unit
    layer whose four gates all get the pre-activations ``z``."""
    a = np.repeat(np.asarray(z, dtype=np.float64)[:, None], 4, axis=1)
    state = np.zeros((len(a), 1))
    neural._cell(a, state, np.empty_like(state), np.empty_like(state))
    return a


class TestActivations:
    def test_sigmoid_matches_definition(self):
        z = np.array([-700.0, -3.0, 0.0, 3.0, 700.0, 1.5])
        acts = gate_activations(z)
        for out in acts[:, :3].T:  # i, f, o
            assert np.all((out >= 0) & (out <= 1))
            assert out[2] == 0.5
            assert out[0] == pytest.approx(0.0, abs=1e-300)
            assert out[4] == pytest.approx(1.0)
            assert out[5] == pytest.approx(1 / (1 + np.exp(-1.5)))
        assert np.array_equal(acts[:, 3], np.tanh(z))

    def test_cell_gate_keeps_the_sign_of_zero(self):
        # The g column's shift is -0.0, the one that leaves every value as it is.
        acts = gate_activations(np.array([-0.0, 0.0]))
        assert np.signbit(acts[:, 3]).tolist() == [True, False]

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-745.0, max_value=745.0))
    def test_sigmoid_absolute_error_within_half_ulp_of_one(self, z):
        # Absolute, not relative: the tanh form returns 0 below about z = -38.
        for out in gate_activations([z])[0, :3]:  # i, f, o
            assert 0.0 <= out <= 1.0
            assert out == (np.tanh(z * 0.5) + 1.0) * 0.5
            with localcontext() as ctx:
                ctx.prec = 40
                exact = 1 / (1 + (-Decimal(z)).exp())
                assert abs(Decimal(float(out)) - exact) <= Decimal(2) ** -53

    def test_log_softmax_rows_normalize(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 9)) * 50
        probs = np.exp(log_softmax(logits))
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs > 0)

    def test_log_softmax_consistent(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 5))
        expected = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        assert np.allclose(np.exp(log_softmax(logits)), expected)

    def test_log_softmax_handles_extreme_logits(self):
        logits = np.array([[1000.0, 0.0, -1000.0]])
        logp = log_softmax(logits)
        assert np.isfinite(logp).all() and logp[0, 0] == pytest.approx(0.0)


class TestInit:
    def test_shapes_and_layer_stacking(self):
        params = tiny_params(din=10, hidden=4, nout=3, layers=3)
        assert params.n_layers == 3
        assert params.layers[0].w_x.shape == (10, 16)
        assert params.layers[1].w_x.shape == (4, 16)  # fed by the layer below
        assert params.layers[0].w_m.shape == (4, 16)
        assert params.w_out.shape == (4, 3)
        assert params.input_dim == 10 and params.hidden_size == 4

    def test_forget_gate_bias(self):
        params = tiny_params(hidden=4)
        for layer in params.layers:
            b = layer.b
            assert np.all(b[4:8] == 1.0)  # forget slice
            assert np.all(b[:4] == 0.0) and np.all(b[8:] == 0.0)

    def test_deterministic_and_seed_sensitive(self):
        a, b = tiny_params(seed=7), tiny_params(seed=7)
        assert all(
            np.array_equal(x, y)
            for (_, x), (_, y) in zip(a.named_arrays(), b.named_arrays())
        )
        c = tiny_params(seed=8)
        assert not np.array_equal(a.layers[0].w_x, c.layers[0].w_x)

    def test_init_scale_bounds(self):
        params = tiny_params(seed=3)
        weights = [a for name, a in params.named_arrays() if "w_" in name]
        assert all(np.abs(w).max() <= DEFAULT_INIT_SCALE for w in weights)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            init_params(0, 4, 3)
        with pytest.raises(ValueError):
            init_params(4, 4, 3, n_layers=0)


class TestForwardOracle:
    @pytest.mark.parametrize("layers", [1, 2, 3], ids=lambda layers: f"{layers}-tanh")
    def test_matches_reference(self, layers):
        rng = np.random.default_rng(layers * 10 + 1)
        params = tiny_params(layers=layers, seed=layers)
        inputs, targets = random_batch(rng, steps=7, batch=3, din=6, nout=7)
        result = forward_sequence(params, inputs, targets)
        ref_logits, ref_loss = reference_forward(params, inputs, targets)
        assert result.loss == pytest.approx(ref_loss, abs=1e-12)
        assert np.allclose(result.probs, np.exp(log_softmax(ref_logits)), atol=1e-12)

    def test_matches_reference_with_mask_and_dropout(self):
        rng = np.random.default_rng(3)
        params = tiny_params(seed=5)
        inputs, targets = random_batch(rng, steps=6, batch=4, din=6, nout=7)
        mask = np.ones((6, 4))
        mask[4:, 2] = 0
        masks = make_dropout_masks(np.random.default_rng(9), 0.5, 6, 2, 4, 5,
                                   out=np.empty((6, 2, 4, 5)))
        result = forward_sequence(
            params, inputs, targets, mask=mask, dropout=0.5, rng=np.random.default_rng(9)
        )
        _, ref_loss = reference_forward(params, inputs, targets, mask, masks)
        assert result.loss == pytest.approx(ref_loss, abs=1e-12)

    def test_zero_params_give_uniform_distribution(self):
        hidden, nout = 4, 38
        params = GeneratorParams(
            layers=[LstmLayerParams(np.zeros((10, 16)), np.zeros(16))],
            w_out=np.zeros((hidden, nout)),
            b_out=np.zeros(nout),
        )
        rng = np.random.default_rng(0)
        inputs, targets = random_batch(rng, 5, 2, 6, nout)
        result = forward_sequence(params, inputs, targets)
        assert np.allclose(result.probs, 1.0 / nout)
        assert result.loss == pytest.approx(np.log(nout))

    def test_loss_decomposes_over_mask(self):
        # Mean NLL over the mask equals the weighted mean of per-step NLLs.
        params = tiny_params()
        rng = np.random.default_rng(4)
        inputs, targets = random_batch(rng, 4, 1, 6, 7)
        full = forward_sequence(params, inputs, targets)
        per_step = []
        for t in range(4):
            m = np.zeros((4, 1))
            m[t, 0] = 1
            per_step.append(forward_sequence(params, inputs, targets, mask=m).loss)
        assert full.loss == pytest.approx(np.mean(per_step))

    def test_empty_sequence_rejected(self):
        params = tiny_params()
        with pytest.raises(ValueError, match="empty"):
            forward_sequence(params, np.zeros((0, 1, 6)), np.zeros((0, 1), dtype=int))

    @pytest.mark.parametrize("shape", [(5, 6), (5, 1, 1, 6)], ids=["T-D", "T-B-1-D"])
    def test_inputs_other_than_time_batch_features_rejected(self, shape):
        params = tiny_params()
        with pytest.raises(ValueError, match=r"inputs must be \(T, B, D\)"):
            forward_sequence(params, np.zeros(shape), np.zeros((5, 1), dtype=int))

    def test_all_masked_rejected(self):
        params = tiny_params()
        rng = np.random.default_rng(0)
        inputs, targets = random_batch(rng, 3, 2, 6, 7)
        with pytest.raises(ValueError, match="mask"):
            forward_sequence(params, inputs, targets, mask=np.zeros((3, 2)))

    def test_dropout_requires_rng(self):
        params = tiny_params()
        rng = np.random.default_rng(0)
        inputs, targets = random_batch(rng, 3, 2, 6, 7)
        with pytest.raises(ValueError, match="rng"):
            forward_sequence(params, inputs, targets, dropout=0.5)

    def test_dropout_zero_equals_no_dropout(self):
        params = tiny_params()
        rng = np.random.default_rng(0)
        inputs, targets = random_batch(rng, 3, 2, 6, 7)
        a = forward_sequence(params, inputs, targets, dropout=0.0)
        b = forward_sequence(params, inputs, targets)
        assert a.loss == b.loss

    @pytest.mark.parametrize("dropped", [False, True])
    def test_cacheless_pass_is_bit_identical(self, dropped):
        # Without a cache all three layers share one gate, cell and output buffer.
        params = tiny_params(layers=3)
        rng = np.random.default_rng(4)
        inputs, targets = random_batch(rng, 5, 3, 6, 7)
        mask = (rng.random((5, 3)) < 0.7).astype(float)
        mask[0, 0] = 1.0
        dropout = 0.4 if dropped else 0.0
        cached = forward_sequence(
            params, inputs, targets, mask=mask, dropout=dropout, rng=np.random.default_rng(5)
        )
        bare = forward_sequence(
            params, inputs, targets, mask=mask, dropout=dropout, rng=np.random.default_rng(5),
            collect_cache=False,
        )
        assert bare.cache is None
        assert bare.loss == cached.loss
        assert np.array_equal(bare.probs, cached.probs)

    def test_forget_gate_saturation_carries_cell(self):
        # With +inf-ish forget bias and zero input/output contributions
        # elsewhere, the cell integrates inputs.
        hidden = 1
        w = np.zeros((2, 4))  # the input's row of w_x over w_m's one row
        w[0, 0] = 100.0  # input gate driven fully open by any positive x
        w[0, 3] = 0.0
        b = np.array([0.0, 100.0, 100.0, 0.0])  # forget and output saturated
        params = GeneratorParams(
            layers=[LstmLayerParams(w, b)],
            w_out=np.ones((1, 1)),
            b_out=np.zeros(1),
        )
        state = None
        for _ in range(3):
            state, logits = lstm_step(params, np.ones((1, 1)), state)
        # g = tanh(0) = 0 each step, so the cell stays at 0 but is retained;
        # now push a nonzero cell write and watch it persist.
        params.layers[0].w_x[0, 3] = 0.5
        state, logits = lstm_step(params, np.ones((1, 1)), state)
        first = float(state.c[0, 0, 0])
        params.layers[0].w_x[0, 3] = 0.0
        state, logits = lstm_step(params, np.ones((1, 1)), state)
        assert float(state.c[0, 0, 0]) == pytest.approx(first, rel=1e-6)


def random_case(seed, steps, batch, layers, masked):
    """Small model with N(0, 1) weights and biases, a batch, an optional
    validity mask, and a seed for the dropout rng."""
    rng = np.random.default_rng(seed)
    din, hidden, nout = (int(rng.integers(low, high)) for low, high in ((1, 6), (1, 5), (2, 8)))
    stack = [
        LstmLayerParams(
            rng.normal(size=((din if l == 0 else hidden) + hidden, 4 * hidden)),
            rng.normal(size=4 * hidden),
        )
        for l in range(layers)
    ]
    params = GeneratorParams(stack, rng.normal(size=(hidden, nout)), rng.normal(size=nout))
    inputs, targets = random_batch(rng, steps, batch, din, nout)
    mask = None
    if masked:
        mask = (rng.random((steps, batch)) < 0.6).astype(float)
        mask[rng.integers(steps), rng.integers(batch)] = 1.0
    return params, inputs, targets, mask, int(rng.integers(2**32))


class TestOracleProperties:
    """forward_sequence, backward and lstm_step against the straight-line oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 6),
        batch=st.integers(1, 3),
        layers=st.sampled_from([1, 2, 3]),
        masked=st.booleans(),
        dropped=st.booleans(),
    )
    @example(seed=0, steps=1, batch=1, layers=3, masked=False, dropped=True)
    def test_sequence_matches_oracle(self, seed, steps, batch, layers, masked, dropped):
        params, inputs, targets, mask, draw = random_case(seed, steps, batch, layers, masked)
        dropout = 0.4 if dropped else 0.0
        masks = None
        if dropped:
            shape = (steps, layers, batch, params.hidden_size)
            masks = make_dropout_masks(np.random.default_rng(draw), dropout, *shape,
                                       out=np.empty(shape))
        result = forward_sequence(
            params, inputs, targets, mask=mask, dropout=dropout, rng=np.random.default_rng(draw)
        )
        ref_logits, ref_loss = reference_forward(params, inputs, targets, mask, masks)
        assert result.loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
        assert np.allclose(result.probs, np.exp(log_softmax(ref_logits)), rtol=0, atol=1e-12)
        probs = result.probs.copy()  # backward overwrites them with the logit gradients

        grads = backward(params, result.cache)
        ref_grads = reference_backward(params, inputs, targets, mask, masks)
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            scale = np.abs(ref).max()
            assert np.abs(grads[name] - ref).max() <= 1e-12 * scale, name

        if not dropped:  # decoding never drops
            state = None
            for t in range(steps):
                state, logits = lstm_step(params, inputs[t], state)
                step_probs = np.exp(log_softmax(logits))
                assert np.allclose(step_probs, probs[t], rtol=0, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.sampled_from(["1-D", 1, 2, 5]),
        steps=st.integers(1, 4),
        layers=st.sampled_from([1, 2, 3]),
        binary=st.booleans(),
    )
    @example(seed=0, rows="1-D", steps=4, layers=3, binary=True)
    @example(seed=1, rows=5, steps=4, layers=3, binary=False)
    def test_step_matches_oracle(self, seed, rows, steps, layers, binary):
        """lstm_step's logits, step by step, against the oracle's within
        1e-12 of ``scale = max_k sum_j |w_out[j, k]| + |b_out[k]|``, which
        bounds |logits| because |m| < 1.

        The bound is derived a priori, not fitted. Weights and biases lie in
        +-DEFAULT_INIT_SCALE (s) and inputs in [-1, 1] (dense) or {0, 1}. A
        pre-activation sums at most n = D + H + 1 = 13 terms of size at most
        s, so each implementation rounds it by at most gamma_13 * 13 * s
        (Higham, Accuracy and Stability, Thm 3.1), whatever the order of its
        products. Sigmoid and tanh are 1/4- and 1-Lipschitz and are within 3
        ulps in both implementations; |c_t| <= t. Carrying these worst cases
        through 3 layers and 4 steps at D=8, H=4 bounds each implementation's
        logit error by 1.7e-13 * scale, so the two differ by at most
        3.4e-13 * scale.
        """
        rng = np.random.default_rng(seed)
        din, hidden, nout = (int(rng.integers(low, high)) for low, high in ((1, 9), (1, 5), (2, 9)))
        s = DEFAULT_INIT_SCALE
        stack = [
            LstmLayerParams(
                rng.uniform(-s, s, size=((din if l == 0 else hidden) + hidden, 4 * hidden)),
                rng.uniform(-s, s, size=4 * hidden),
            )
            for l in range(layers)
        ]
        params = GeneratorParams(
            stack, rng.uniform(-s, s, size=(hidden, nout)), rng.uniform(-s, s, size=nout)
        )
        batch = 1 if rows == "1-D" else rows
        if binary:
            inputs = (rng.random((steps, batch, din)) < 0.3).astype(np.float64)
        else:
            inputs = rng.uniform(-1.0, 1.0, size=(steps, batch, din))
        ref_logits, _ = reference_forward(params, inputs, np.zeros((steps, batch), dtype=int))
        scale = (np.abs(params.w_out).sum(axis=0) + np.abs(params.b_out)).max()
        state = None
        for t in range(steps):
            x = inputs[t, 0] if rows == "1-D" else inputs[t]
            state, logits = lstm_step(params, x, state)
            expected = ref_logits[t, 0] if rows == "1-D" else ref_logits[t]
            assert logits.shape == expected.shape
            assert np.abs(logits - expected).max() <= 1e-12 * scale


def one_shot_masks(rng, dropout, shape):
    """Dropout masks from a single (T, L, B, H) draw."""
    keep = 1.0 - dropout
    return (rng.random(shape) < keep) / keep


class TestWorkspaceReuse:
    """Steps through one workspace give the bits of fresh float64 passes."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(
            st.tuples(
                st.integers(1, 10),  # longest sequence
                st.integers(1, 5),  # batch
                st.sampled_from([1, 2, 3]),  # LSTM layers
                st.booleans(),  # dropout
            ),
            min_size=2,
            max_size=4,
        ),
        gemm_rows=st.sampled_from([3, 8, 1024]),
        max_steps=st.sampled_from([None, 10]),
    )
    def test_reused_buffers_give_fresh_results(self, seed, steps, gemm_rows, max_steps):
        rng = np.random.default_rng(seed)
        din, hidden, nout = 5, 3, 6
        models = {l: tiny_params(din, hidden, nout, layers=l, seed=l) for l in (1, 2, 3)}
        workspace = {} if max_steps is None else {"max_steps": max_steps}
        # Small row blocks split the up-going gradient into many blocks.
        with mock.patch.object(neural, "GEMM_ROWS", gemm_rows):
            for longest, batch, layers, dropped in steps:
                params = models[layers]
                lengths = rng.integers(1, longest + 1, size=batch)
                lengths[rng.integers(batch)] = longest
                stored = [
                    TrainingSequence(
                        (rng.random((n, din)) < 0.3).astype(np.uint8),
                        rng.integers(0, nout, size=n),
                    )
                    for n in lengths
                ]
                inputs, targets, mask = pad_batch(stored, workspace=workspace)
                floats = pad_batch(
                    [TrainingSequence(s.inputs.astype(np.float64), s.targets) for s in stored]
                )
                assert inputs.dtype == floats[0].dtype == np.uint8
                for got, want in zip((inputs, targets, mask), floats):
                    assert np.array_equal(got, want)
                floats = (floats[0].astype(np.float64), *floats[1:])
                dropout = 0.5 if dropped else 0.0
                draw = int(rng.integers(2**32))
                reused = forward_sequence(
                    params, inputs, targets, mask=mask, dropout=dropout,
                    rng=np.random.default_rng(draw), workspace=workspace,
                )
                fresh = forward_sequence(
                    params, floats[0], floats[1], mask=floats[2], dropout=dropout,
                    rng=np.random.default_rng(draw),
                )
                assert reused.loss == fresh.loss
                assert np.array_equal(reused.probs, fresh.probs)
                masks = reused.cache["dropout_masks"]
                if dropped:
                    shape = (longest, layers, batch, hidden)
                    one_shot = one_shot_masks(np.random.default_rng(draw), dropout, shape)
                    assert np.array_equal(masks, one_shot)
                    assert np.array_equal(
                        make_dropout_masks(np.random.default_rng(draw), dropout, *shape,
                                           out=np.empty(shape)),
                        one_shot,
                    )
                got = backward(params, reused.cache)
                want = backward(params, fresh.cache)
                assert got.keys() == want.keys()
                for name in want:
                    assert np.array_equal(got[name], want[name]), name
                # Against the oracle too, for the blocked backward. Each gradient
                # sums terms of at most unit size (probability differences over
                # valid steps times unit-scale activations and weights), so its
                # rounding error is absolute at scale 1 when the sum cancels.
                ref_grads = reference_backward(params, floats[0], floats[1], floats[2], masks)
                for name, ref in ref_grads.items():
                    scale = max(np.abs(ref).max(), 1.0)
                    assert np.abs(want[name] - ref).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("dropped", [False, True])
    def test_in_place_log_softmax_gives_the_bits_of_log_softmax(self, dropped):
        rng = np.random.default_rng(12)
        params = tiny_params()
        inputs, targets = random_batch(rng, 6, 3, 6, 7)
        dropout = 0.4 if dropped else 0.0
        masks = None
        if dropped:
            masks = make_dropout_masks(np.random.default_rng(2), dropout, 6, 2, 3, 5,
                                       out=np.empty((6, 2, 3, 5)))
        result = forward_sequence(
            params, inputs, targets, dropout=dropout, rng=np.random.default_rng(2)
        )
        top = result.cache["outs"][-1] if masks is None else result.cache["outs"][-1] * masks[:, -1]
        logits = np.matmul(top.reshape(-1, 5), params.w_out).reshape(6, 3, 7)
        logits += params.b_out
        logp = log_softmax(logits)
        assert np.array_equal(result.probs, np.exp(logp))
        picked = np.take_along_axis(logp, targets[:, :, None], axis=2)[:, :, 0]
        assert result.loss == float(-(picked * np.ones((6, 3))).sum() / 18)

    def test_backward_after_the_workspace_is_used_again_is_rejected(self):
        rng = np.random.default_rng(11)
        params = tiny_params()
        inputs, targets = random_batch(rng, 4, 2, 6, 7)
        workspace = {}
        first = forward_sequence(params, inputs, targets, workspace=workspace)
        forward_sequence(params, inputs, targets, workspace=workspace, collect_cache=False)
        with pytest.raises(ValueError, match="outdated"):
            backward(params, first.cache)
        second = forward_sequence(params, inputs, targets, workspace=workspace)
        pad_batch([TrainingSequence(inputs[:, 0] > 0, targets[:, 0])], workspace=workspace)
        with pytest.raises(ValueError, match="outdated"):
            backward(params, second.cache)
        third = forward_sequence(params, inputs, targets, workspace=workspace)
        backward(params, third.cache)

    def test_buffers_have_room_for_the_longest_batch(self):
        workspace = {"max_steps": 10}
        short = take_buffer(workspace, "gates", (2, 4, 3), steps=4)
        store = workspace["gates"]
        assert store.size == 2 * 10 * 3 and np.shares_memory(short, store)
        longest = take_buffer(workspace, "gates", (2, 10, 3), steps=10)
        assert workspace["gates"] is store and longest.flags.c_contiguous
        take_buffer(workspace, "gates", (2, 11, 3), steps=11)
        assert workspace["gates"] is not store and workspace["gates"].size == 2 * 11 * 3
        as_bytes = take_buffer(workspace, "gates", (2, 4, 3), np.uint8, steps=4)
        assert as_bytes.dtype == np.uint8 and workspace["gates"].dtype == np.uint8


class TestLstmStep:
    def test_batched_and_single_agree(self):
        params = tiny_params()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 6))
        state_b, logits_b = lstm_step(params, x)
        state_s, logits_s = lstm_step(params, x[1])
        assert np.allclose(logits_b[1], logits_s)
        assert np.allclose(state_b.m[:, 1], state_s.m[:, 0])

    def test_state_threading_matches_sequence(self):
        params = tiny_params()
        rng = np.random.default_rng(1)
        inputs, targets = random_batch(rng, 5, 2, 6, 7)
        seq = forward_sequence(params, inputs, targets)
        state = None
        for t in range(5):
            state, logits = lstm_step(params, inputs[t], state)
            step_probs = np.exp(log_softmax(logits))
            assert np.allclose(step_probs, seq.probs[t], atol=1e-12)

    def test_zeros_state_constructor(self):
        params = tiny_params(layers=3, hidden=4)
        state = LstmState.zeros(params, batch_size=2)
        assert state.c.shape == (3, 2, 4) and not state.c.any()


class TestBackward:
    @pytest.mark.parametrize("layers", [1, 2, 3], ids=lambda layers: f"{layers}-tanh")
    def test_grad_check_all_configurations(self, layers):
        rng = np.random.default_rng(layers)
        params = tiny_params(layers=layers, seed=layers + 1)
        inputs, targets = random_batch(rng, steps=8, batch=2, din=6, nout=7)
        report = grad_check(params, inputs, targets, n_samples=120, seed=0)
        assert report.max_rel_error < 1e-4, report

    def test_grad_check_with_mask(self):
        rng = np.random.default_rng(5)
        params = tiny_params()
        inputs, targets = random_batch(rng, 6, 3, 6, 7)
        mask = (rng.random((6, 3)) < 0.7).astype(float)
        mask[0, 0] = 1.0
        report = grad_check(params, inputs, targets, mask=mask, n_samples=100, seed=1)
        assert report.max_rel_error < 1e-4

    def test_gradients_with_dropout_match_finite_differences(self):
        # An rng of a fixed seed draws the same dropout masks on every pass,
        # which makes the dropped network a deterministic function, so its
        # analytic gradients must still check out.
        rng = np.random.default_rng(6)
        params = tiny_params()
        inputs, targets = random_batch(rng, 5, 2, 6, 7)
        result = forward_sequence(
            params, inputs, targets, dropout=0.5, rng=np.random.default_rng(3)
        )
        grads = backward(params, result.cache)
        delta = 1e-5
        worst = 0.0
        check_rng = np.random.default_rng(0)
        for name, arr in params.named_arrays():
            for _ in range(6):
                index = int(check_rng.integers(arr.size))
                original = arr.flat[index]
                arr.flat[index] = original + delta
                up = forward_sequence(
                    params, inputs, targets, dropout=0.5, rng=np.random.default_rng(3),
                    collect_cache=False,
                ).loss
                arr.flat[index] = original - delta
                down = forward_sequence(
                    params, inputs, targets, dropout=0.5, rng=np.random.default_rng(3),
                    collect_cache=False,
                ).loss
                arr.flat[index] = original
                numeric = (up - down) / (2 * delta)
                analytic = grads[name].flat[index]
                worst = max(
                    worst,
                    abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6),
                )
        assert worst < 1e-4

    def test_masked_steps_contribute_no_gradient(self):
        # Gradients from a masked batch equal gradients from the valid prefix.
        rng = np.random.default_rng(7)
        params = tiny_params()
        inputs, targets = random_batch(rng, 6, 1, 6, 7)
        mask = np.ones((6, 1))
        mask[3:] = 0.0
        _, grads_masked, _ = loss_and_grads(params, inputs, targets, mask=mask)
        _, grads_prefix, _ = loss_and_grads(params, inputs[:3], targets[:3])
        for name in grads_masked:
            assert np.allclose(grads_masked[name], grads_prefix[name], atol=1e-12), name

    def test_unused_input_column_gets_zero_gradient(self):
        # An input dimension that is always zero cannot influence the loss.
        rng = np.random.default_rng(8)
        params = tiny_params(din=6)
        inputs, targets = random_batch(rng, 5, 3, 6, 7)
        inputs[:, :, 2] = 0.0
        _, grads, _ = loss_and_grads(params, inputs, targets)
        assert np.allclose(grads["lstm0.w_x"][2], 0.0)

    def test_second_backward_on_one_cache_is_rejected(self):
        # backward writes gate gradients over the cached gates; reusing the
        # cache would silently give wrong gradients.
        rng = np.random.default_rng(10)
        params = tiny_params()
        inputs, targets = random_batch(rng, 4, 2, 6, 7)
        result = forward_sequence(params, inputs, targets)
        backward(params, result.cache)
        with pytest.raises(ValueError, match="already consumed"):
            backward(params, result.cache)

    def test_grad_check_report_fields(self):
        rng = np.random.default_rng(9)
        params = tiny_params()
        inputs, targets = random_batch(rng, 4, 1, 6, 7)
        report = grad_check(params, inputs, targets, n_samples=10, seed=3)
        assert report.n_checked == 10
        assert report.worst_name != ""


class TestAdam:
    def test_first_step_size_is_learning_rate(self):
        # With constant gradients the first Adam update is ~lr per coordinate.
        params = tiny_params()
        adam = init_adam(params, learning_rate=0.01)
        before = {name: arr.copy() for name, arr in params.named_arrays()}
        grads = {name: np.ones_like(arr) for name, arr in params.named_arrays()}
        adam_update(params, grads, adam)
        for name, arr in params.named_arrays():
            assert np.allclose(before[name] - arr, 0.01, atol=1e-6), name

    def test_zero_gradient_is_fixed_point(self):
        params = tiny_params()
        adam = init_adam(params)
        before = {name: arr.copy() for name, arr in params.named_arrays()}
        grads = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
        adam_update(params, grads, adam)
        for name, arr in params.named_arrays():
            assert np.array_equal(before[name], arr)

    def test_descends_a_quadratic(self):
        # Minimize ||theta||^2/2 through the GeneratorParams plumbing.
        params = tiny_params(seed=12)
        adam = init_adam(params, learning_rate=0.05)
        def objective():
            return sum(float((a * a).sum()) for _, a in params.named_arrays())
        start = objective()
        for _ in range(200):
            grads = {name: arr.copy() for name, arr in params.named_arrays()}
            adam_update(params, grads, adam)
        assert objective() < start * 0.01

    @pytest.mark.parametrize("block", [7, neural.ADAM_BLOCK])
    def test_blocked_in_place_update_matches_the_textbook_one(self, block):
        rng = np.random.default_rng(13)
        params = tiny_params(seed=13)
        expected = params.copy()
        adam = init_adam(params, learning_rate=0.02)
        m = {name: np.zeros_like(arr) for name, arr in expected.named_arrays()}
        v = {name: np.zeros_like(arr) for name, arr in expected.named_arrays()}
        for t in range(1, 6):
            grads = {name: rng.normal(size=arr.shape) for name, arr in params.named_arrays()}
            with mock.patch.object(neural, "ADAM_BLOCK", block):
                adam_update(params, grads, adam)
            for name, arr in expected.named_arrays():
                g = grads[name]
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
                v[name] = 0.999 * v[name] + (1.0 - 0.999) * (g * g)
                m_hat = m[name] / (1.0 - 0.9**t)
                v_hat = v[name] / (1.0 - 0.999**t)
                arr -= 0.02 * m_hat / (np.sqrt(v_hat) + 1e-8)
            for (name, got), (_, want) in zip(params.named_arrays(), expected.named_arrays()):
                assert np.array_equal(got, want), name
                assert np.array_equal(adam.m[name], m[name]) and np.array_equal(adam.v[name], v[name])

    def test_step_counter_advances(self):
        params = tiny_params()
        adam = init_adam(params)
        grads = {name: np.ones_like(arr) for name, arr in params.named_arrays()}
        adam_update(params, grads, adam)
        adam_update(params, grads, adam)
        assert adam.t == 2


class TestClip:
    def test_large_gradients_scaled_to_max_norm(self):
        grads = {"a": np.full(4, 10.0), "b": np.full(9, 10.0)}
        norm = clip_global_norm(grads, 5.0)
        assert norm == pytest.approx(10.0 * np.sqrt(13))
        joint = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        assert joint == pytest.approx(5.0)

    def test_small_gradients_untouched(self):
        grads = {"a": np.array([0.3, 0.4])}
        norm = clip_global_norm(grads, 5.0)
        assert norm == pytest.approx(0.5)
        assert grads["a"].tolist() == [0.3, 0.4]

    def test_zero_gradients(self):
        grads = {"a": np.zeros(3)}
        assert clip_global_norm(grads, 5.0) == 0.0


class TestCheckpoints:
    def test_params_only_checkpoint(self, tmp_path):
        params = tiny_params(seed=21)
        path = tmp_path / "bare.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert isinstance(loaded, GeneratorParams)
        for (name, arr), (name2, arr2) in zip(params.named_arrays(), loaded.named_arrays()):
            assert name == name2 and np.array_equal(arr, arr2)
        assert load_arrays(path)[1] == {"generator": {"n_layers": 2}}

    def test_checkpoint_bytes_identical_across_runs(self, tmp_path):
        for run in ("a", "b"):
            params = tiny_params(seed=33)
            save_checkpoint(tmp_path / f"{run}.ckpt", params)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    @staticmethod
    def old_checkpoint(path, params, activation):
        """A checkpoint as written before the header lost its activation and user keys."""
        header = {"generator": {"n_layers": params.n_layers, "cell_activation": activation},
                  "user": {"level": "note"}}
        save_arrays(path, dict(params.named_arrays()), header)

    def test_old_tanh_checkpoint_loads(self, tmp_path):
        params = tiny_params(seed=5)
        self.old_checkpoint(tmp_path / "old.ckpt", params, "tanh")
        loaded = load_checkpoint(tmp_path / "old.ckpt")
        for (_, arr), (_, arr2) in zip(params.named_arrays(), loaded.named_arrays()):
            assert np.array_equal(arr, arr2)

    def test_old_identity_checkpoint_rejected_by_name(self, tmp_path):
        self.old_checkpoint(tmp_path / "old.ckpt", tiny_params(), "identity")
        with pytest.raises(ValueError, match="'identity' cell activation"):
            load_checkpoint(tmp_path / "old.ckpt")


class TestParamsContainer:
    def test_copy_is_deep(self):
        params = tiny_params()
        dup = params.copy()
        dup.layers[0].w_x[0, 0] = 123.0
        assert params.layers[0].w_x[0, 0] != 123.0

    def test_named_arrays_order(self):
        params = tiny_params(layers=2)
        names = [name for name, _ in params.named_arrays()]
        assert names == [
            "lstm0.w_x", "lstm0.w_m", "lstm0.b",
            "lstm1.w_x", "lstm1.w_m", "lstm1.b",
            "w_out", "b_out",
        ]


class TestStackedStorage:
    """Each layer keeps one (D + H, 4H) array; w_x and w_m are its row blocks."""

    def test_row_blocks_are_views_of_the_stacked_array(self):
        for layer in tiny_params(din=6, hidden=5, layers=3).layers:
            assert layer.w.flags.c_contiguous
            assert layer.w.shape == (layer.input_dim + 5, 20)
            assert np.shares_memory(layer.w_x, layer.w) and np.shares_memory(layer.w_m, layer.w)

    def test_writes_through_named_arrays_change_the_step(self):
        params = tiny_params(layers=2)
        x = np.ones(6)
        state, _ = lstm_step(params, x)
        _, before = lstm_step(params, x, state)
        for name, arr in params.named_arrays():
            if name.endswith((".w_x", ".w_m")):
                arr += 0.5
                _, after = lstm_step(params, x, state)
                arr -= 0.5
                assert not np.allclose(after, before), name
        assert np.allclose(lstm_step(params, x, state)[1], before, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["w_x", "w_m"])
    def test_row_blocks_cannot_be_rebound(self, name):
        layer = tiny_params().layers[0]
        with pytest.raises(AttributeError):
            setattr(layer, name, np.zeros_like(getattr(layer, name)))

    def test_constructor_keeps_the_stack(self):
        w, b = np.zeros((7, 16)), np.zeros(16)
        layer = LstmLayerParams(w, b)
        assert layer.w is w and layer.b is b
        assert (layer.input_dim, layer.hidden_size) == (3, 4)

    @pytest.mark.parametrize("w_shape, b_shape", [
        ((7, 12), (16,)),  # w's columns against b
        ((7, 16), (12,)),
        ((3, 16), (16,)),  # fewer rows than the recurrent block needs
        ((7, 16), (4, 4)),
        ((112,), (16,)),
    ])
    def test_arrays_of_different_hidden_sizes_rejected(self, w_shape, b_shape):
        with pytest.raises(ValueError, match="one hidden size"):
            LstmLayerParams(np.zeros(w_shape), np.zeros(b_shape))

    def test_init_draws_each_stack_as_w_x_then_w_m(self):
        din, hidden, nout = 7, 3, 5
        params = init_params(din, hidden, nout, n_layers=2, seed=11)
        rng = np.random.default_rng(11)
        s = DEFAULT_INIT_SCALE
        for layer, rows in zip(params.layers, (din, hidden)):
            assert np.array_equal(layer.w_x, rng.uniform(-s, s, size=(rows, 4 * hidden)))
            assert np.array_equal(layer.w_m, rng.uniform(-s, s, size=(hidden, 4 * hidden)))
        assert np.array_equal(params.w_out, rng.uniform(-s, s, size=(hidden, nout)))

    def test_step_rejects_an_input_of_another_width(self):
        with pytest.raises(ValueError, match="5 features, the model takes 6"):
            lstm_step(tiny_params(din=6), np.ones((2, 5)))

    def test_loaded_params_are_writable_and_own_their_memory(self, tmp_path):
        save_checkpoint(tmp_path / "a.ckpt", tiny_params(layers=3, seed=4))
        loaded = load_checkpoint(tmp_path / "a.ckpt")
        owned = [arr for layer in loaded.layers for arr in (layer.w, layer.b)]
        for arr in [*owned, loaded.w_out, loaded.b_out]:
            assert arr.flags.owndata and arr.flags.writeable and arr.flags.c_contiguous
        for _, arr in loaded.named_arrays():
            arr += 1.0  # Adam and the gradient check write through these

    def test_checkpoint_with_a_misshaped_recurrent_block_rejected(self, tmp_path):
        arrays = dict(tiny_params(din=6, hidden=5).named_arrays())
        arrays["lstm1.w_x"], arrays["lstm1.w_m"] = np.zeros((4, 20)), np.zeros((6, 20))
        save_arrays(tmp_path / "bad.ckpt", arrays, {"generator": {"n_layers": 2}})
        with pytest.raises(ValueError, match=r"layer 1: w_m \(6, 20\) and b \(20,\)"):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_checkpoint_round_trip_keeps_the_bytes(self, tmp_path):
        save_checkpoint(tmp_path / "a.ckpt", tiny_params(layers=3, seed=4))
        save_checkpoint(tmp_path / "b.ckpt", load_checkpoint(tmp_path / "a.ckpt"))
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_iterations=0),
            dict(batch_size=0),
            dict(dropout=1.0),
            dict(dropout=-0.1),
            dict(eval_every=0),
            dict(patience=0),
            dict(hidden_size=0),
            dict(n_lstm_layers=0),
        ],
    )
    def test_validation(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            TrainConfig(**kwargs)
