"""Feed-forward surrogate g_phi with hand-rolled autodiff.

Architecture: per hidden layer Linear -> Norm -> LeakyReLU, then a linear head
to one scalar. Parameters (weights, biases, norm scale/shift) live in a single
flat float64 vector, `net.params`, and only there: every pass reads the
parameters of the net it is given. A fast-weight vector phi' is scored on its
own net, SurrogateNet(net.arch, phi', net.norm_stats), which shares the running
statistics list of the net it came from.

The net holds no train/eval state. `forward(..., train=True)` normalizes with
batch statistics and moves the running statistics with momentum 0.9. Every
other pass (`forward`, `input_grad_batch`, `forward_jvp` and the reverse passes
over their caches) uses the frozen running statistics, under which Linear ->
Norm is one affine map: it is folded once per call into W' = W·γ/σ and
b' = (b - μ)·γ/σ + β, so both norm choices run the same code, and the reverse
passes map gradients back to W, b, γ, β by the chain rule. Under the frozen
statistics second derivatives are well-posed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .dataio import read_sealed, write_sealed
from .errors import DataError, NumericalError
from .numerics import RngState

EPS = 1e-5
RUNNING_MOMENTUM = 0.9
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

NORM_BATCH = "batch_stat"
NORM_NONE = "none"


@dataclass(frozen=True)
class Architecture:
    input_dim: int
    hidden: tuple[int, ...] = (512, 128, 32)
    slope: float = 0.01
    norm: str = NORM_BATCH

    def __post_init__(self):
        if not self.hidden or any(w < 1 for w in self.hidden):
            raise ValueError(f"bad hidden widths: {self.hidden}")
        if self.input_dim < 1:
            raise ValueError(f"bad input dim: {self.input_dim}")
        if not (0.0 < self.slope < 1.0):
            raise ValueError(f"slope must be in (0, 1): {self.slope}")
        if self.norm not in (NORM_BATCH, NORM_NONE):
            raise ValueError(f"unknown norm: {self.norm}")
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))

    def layout(self) -> list[tuple[str, tuple[int, ...], int]]:
        """(name, shape, flat offset) for every parameter block."""
        out, off = [], 0
        prev = self.input_dim
        for i, w in enumerate(self.hidden):
            for name, shape in (
                (f"W{i}", (prev, w)),
                (f"b{i}", (w,)),
            ):
                out.append((name, shape, off))
                off += math.prod(shape)
            if self.norm == NORM_BATCH:
                for name in (f"g{i}", f"s{i}"):
                    out.append((name, (w,), off))
                    off += w
            prev = w
        out.append(("Wh", (prev, 1), off))
        off += prev
        out.append(("bh", (1,), off))
        return out

    def n_params(self) -> int:
        name, shape, off = self.layout()[-1]
        return off + math.prod(shape)


class SurrogateNet:
    """Mutable parameter/statistics container; all math is in module functions."""

    def __init__(self, arch: Architecture, params: np.ndarray, norm_stats):
        self._blocks = {k: (o, o + math.prod(s), s) for k, s, o in arch.layout()}
        n_params = self._blocks["bh"][1]
        if params.shape != (n_params,):
            raise NumericalError(f"params length {params.shape} != {n_params} for {arch}")
        self.arch = arch
        self.params = params
        self.norm_stats = norm_stats  # list of (running_mean, running_var) per layer

    def view(self, name: str, params: np.ndarray | None = None):
        start, end, shape = self._blocks[name]
        return (self.params if params is None else params)[start:end].reshape(shape)

    def copy(self) -> "SurrogateNet":
        stats = [(m.copy(), v.copy()) for m, v in self.norm_stats]
        return SurrogateNet(self.arch, self.params.copy(), stats)


def init_net(arch: Architecture, rng: RngState) -> SurrogateNet:
    """Fan-in-scaled uniform weights, zero biases, unit norm scale, stats (0, 1)."""
    params = np.zeros(arch.n_params())
    net = SurrogateNet(arch, params, None)
    prev = arch.input_dim
    for i, w in enumerate(arch.hidden):
        bound = 1.0 / np.sqrt(prev)
        net.view(f"W{i}")[:] = rng.uniform(-bound, bound, size=(prev, w))
        if arch.norm == NORM_BATCH:
            net.view(f"g{i}")[:] = 1.0
        prev = w
    bound = 1.0 / np.sqrt(prev)
    net.view("Wh")[:] = rng.uniform(-bound, bound, size=(prev, 1))
    net.norm_stats = [
        (np.zeros(w), np.ones(w)) for w in (arch.hidden if arch.norm == NORM_BATCH else ())
    ]
    return net


def _fold(net: SurrogateNet, p: np.ndarray) -> list[tuple]:
    """Each hidden layer's Linear -> Norm under the frozen statistics as one
    affine map: (W', b', σ, b - μ) with σ = sqrt(var + EPS), W' = W·γ/σ and
    b' = (b - μ)·γ/σ + β. Without a norm layer it is (W, b, None, None)."""
    folded = []
    for i in range(len(net.arch.hidden)):
        W, b = net.view(f"W{i}", p), net.view(f"b{i}", p)
        if net.arch.norm == NORM_NONE:
            folded.append((W, b, None, None))
            continue
        std = np.sqrt(net.norm_stats[i][1] + EPS)
        centered = b - net.norm_stats[i][0]
        scale = net.view(f"g{i}", p) / std
        folded.append((W * scale, centered * scale + net.view(f"s{i}", p), std, centered))
    return folded


def _unfold_grad(net: SurrogateNet, grad, i: int, fold, dWf, dbf=0.0) -> None:
    """Write layer i's entries of grad from the gradient w.r.t. its folded
    (W', b') by the chain rule; dbf=0 when the pass does not depend on b'.
    dWf must be a fresh array: it is overwritten."""
    _, _, std, centered = fold
    scale = 1.0 if std is None else net.view(f"g{i}") / std
    np.multiply(dWf, scale, out=net.view(f"W{i}", grad))
    np.multiply(dbf, scale, out=net.view(f"b{i}", grad))
    if std is not None:
        net.view(f"s{i}", grad)[:] = dbf
        dg = np.multiply(dWf, net.view(f"W{i}"), out=dWf).sum(axis=0)
        dg += centered * dbf
        np.divide(dg, std, out=net.view(f"g{i}", grad))


def _leaky_mask(u: np.ndarray, slope: float) -> np.ndarray:
    """np.where(u > 0.0, 1.0, slope) bit for bit (0 < slope < 1), by a compare, a
    cast and a maximum, which are cheaper than np.where or a lookup."""
    mask = (u > 0.0).astype(np.float64)
    return np.maximum(mask, slope, out=mask)


def forward(net: SurrogateNet, X: np.ndarray, train=False, folded=None):
    """Predictions (b,) plus the activation cache for backward_params.

    With train=True the norm layers use batch statistics and move the running
    statistics; otherwise each layer is its folded frozen-statistics affine map
    and the net is not mutated; a given `folded` = `_fold(net, net.params)`
    skips the fold.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        raise NumericalError("empty batch")
    if X.shape[1] != net.arch.input_dim:
        raise NumericalError(f"input dim {X.shape[1]} != {net.arch.input_dim}")
    if folded is None and not (train and net.arch.norm == NORM_BATCH):
        folded = _fold(net, net.params)
    h, layers = X, []
    for i in range(len(net.arch.hidden)):
        lay = {"a": h}
        if folded is None:
            s = h @ net.view(f"W{i}") + net.view(f"b{i}")
            mu, var = s.mean(axis=0), s.var(axis=0)
            for running, batch in zip(net.norm_stats[i], (mu, var)):
                running *= RUNNING_MOMENTUM
                running += (1.0 - RUNNING_MOMENTUM) * batch
            std = np.sqrt(var + EPS)
            xhat = (s - mu) / std
            u = net.view(f"g{i}") * xhat + net.view(f"s{i}")
            lay.update(s=s, std=std, xhat=xhat)
        else:
            u = h @ folded[i][0]
            u += folded[i][1]
        lay["mask"] = _leaky_mask(u, net.arch.slope)
        u *= lay["mask"]
        layers.append(lay)
        h = u
    pred = (h @ net.view("Wh") + net.view("bh")).ravel()
    cache = {"train": train, "folded": folded, "layers": layers, "h_last": h, "X": X}
    return pred, cache


def _frozen_grad(net: SurrogateNet, cache, last, d, bias: bool) -> np.ndarray:
    """Flat-parameter gradient of sum_b d[b] * (last @ Wh + bias * bh)[b] back
    through the cache's folded layers: forward's cache and last activations for
    backward_params, forward_jvp's and last tangents for backward_params_jvp."""
    grad = np.zeros_like(net.params)
    net.view("Wh", grad)[:] = last.T @ d[:, None]
    if bias:
        net.view("bh", grad)[:] = d.sum()
    dh = d[:, None] * net.view("Wh").ravel()[None, :]
    for i in reversed(range(len(net.arch.hidden))):
        lay, fold = cache["layers"][i], cache["folded"][i]
        dh *= lay["mask"]
        _unfold_grad(net, grad, i, fold, lay["a"].T @ dh, dh.sum(axis=0) if bias else 0.0)
        if i:
            dh = dh @ fold[0].T
    return grad


def backward_params(net: SurrogateNet, cache, dL_dpred: np.ndarray) -> np.ndarray:
    """Exact reverse-mode gradient of sum_b dL_dpred[b] * pred[b] w.r.t. flat params."""
    dL = np.asarray(dL_dpred, dtype=np.float64).ravel()
    if dL.shape[0] != cache["X"].shape[0]:
        raise NumericalError("dL_dpred length does not match the cached batch")
    if cache["folded"] is not None:
        return _frozen_grad(net, cache, cache["h_last"], dL, bias=True)
    # batch statistics
    grad = np.zeros_like(net.params)
    net.view("Wh", grad)[:] = cache["h_last"].T @ dL[:, None]
    net.view("bh", grad)[:] = dL.sum()
    dh = dL[:, None] * net.view("Wh").ravel()[None, :]
    for i in reversed(range(len(net.arch.hidden))):
        lay = cache["layers"][i]
        du = dh * lay["mask"]
        xhat, std = lay["xhat"], lay["std"]
        net.view(f"g{i}", grad)[:] = (du * xhat).sum(axis=0)
        net.view(f"s{i}", grad)[:] = du.sum(axis=0)
        dxhat = du * net.view(f"g{i}")
        ds = (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0)) / std
        net.view(f"W{i}", grad)[:] = lay["a"].T @ ds
        net.view(f"b{i}", grad)[:] = ds.sum(axis=0)
        if i:
            dh = ds @ net.view(f"W{i}").T
    return grad


def input_grad(net: SurrogateNet, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).ravel()
    return input_grad_batch(net, x[None, :])[0]


def input_grad_batch(net: SurrogateNet, X: np.ndarray, folded=None) -> np.ndarray:
    """Per-row grad_x g(x) under the frozen norm statistics; `folded` as in forward."""
    _, cache = forward(net, X, folded=folded)
    dh = np.broadcast_to(net.view("Wh").ravel()[None, :], cache["h_last"].shape)
    for lay, fold in zip(reversed(cache["layers"]), reversed(cache["folded"])):
        dh = (dh * lay["mask"]) @ fold[0].T
    return dh


def forward_jvp(net: SurrogateNet, X: np.ndarray, V: np.ndarray):
    """Frozen-statistics forward that propagates input tangents V (rows).

    Returns (jvp, cache); jvp[b] = V[b] . grad_x g(X[b]).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    V = np.atleast_2d(np.asarray(V, dtype=np.float64))
    if V.shape != X.shape or X.shape[1] != net.arch.input_dim:
        raise NumericalError(f"input {X.shape} and tangent {V.shape} need one shape "
                             f"with {net.arch.input_dim} columns")
    folded = _fold(net, net.params)
    h, th, layers = X, V, []
    for Wf, bf, _, _ in folded:
        u = h @ Wf
        u += bf
        tu = th @ Wf
        mask = _leaky_mask(u, net.arch.slope)
        u *= mask
        tu *= mask
        layers.append({"a": th, "mask": mask})
        h, th = u, tu
    jvp = (th @ net.view("Wh")).ravel()
    cache = {"folded": folded, "layers": layers, "th_last": th}
    return jvp, cache


def backward_params_jvp(net: SurrogateNet, cache, djvp) -> np.ndarray:
    """Flat-parameter gradient of sum_b djvp[b] * jvp[b].

    Reverse pass over the tangent half of forward_jvp; exact almost everywhere
    (LeakyReLU masks treated as locally constant). The tangents do not depend
    on the biases or the norm shifts, so their entries are 0.
    """
    djvp = np.asarray(djvp, dtype=np.float64).ravel()
    return _frozen_grad(net, cache, cache["th_last"], djvp, bias=False)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_net(cls, net: SurrogateNet) -> "AdamState":
        n = net.params.shape[0]
        return cls(np.zeros(n), np.zeros(n))


def adam_step(params: np.ndarray, grad: np.ndarray, lr: float, state: AdamState) -> np.ndarray:
    if params.shape != grad.shape:
        raise NumericalError(f"{params.shape} vs {grad.shape}")
    state.t += 1
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grad
    state.v *= ADAM_BETA2
    state.v += ((1.0 - ADAM_BETA2) * grad) * grad
    mhat = state.m / (1.0 - ADAM_BETA1**state.t)
    vhat = state.v / (1.0 - ADAM_BETA2**state.t)
    return params - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def apply_update(net: SurrogateNet, grad: np.ndarray, lr: float, optimizer_state: AdamState):
    """In-place Adam update of the net's parameters."""
    net.params = adam_step(net.params, grad, lr, optimizer_state)
    return net


CHECKPOINT_MAGIC = b"OBSN"
CHECKPOINT_VERSION = 2
_RETIRED = (CHECKPOINT_MAGIC + b"\x01",
            "checkpoint version 1 carries no checksum; rerun the stage that wrote it")


def save_checkpoint(net: SurrogateNet, path) -> None:
    """Sealed checkpoint (dataio.write_sealed): a JSON header of the architecture,
    then the flat params and each norm layer's running mean and variance."""
    header = {"input_dim": net.arch.input_dim, "hidden": list(net.arch.hidden),
              "slope": net.arch.slope, "norm": net.arch.norm, "n_stats": len(net.norm_stats)}
    write_sealed(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header,
                 [net.params, *chain.from_iterable(net.norm_stats)])


def load_checkpoint(path) -> SurrogateNet:
    """Read a checkpoint written by save_checkpoint.

    Raises NumericalError for a wrong magic or version, a sha256 mismatch
    (any truncated or altered byte), an unreadable header, or a payload whose
    length disagrees with its header.
    """
    try:
        meta, values = read_sealed(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint",
                                   _RETIRED)
    except DataError as exc:
        raise NumericalError(str(exc)) from None
    try:
        arch = Architecture(
            meta["input_dim"], tuple(meta["hidden"]), meta["slope"], meta["norm"]
        )
        widths = arch.hidden if arch.norm == NORM_BATCH else ()
        if meta["n_stats"] != len(widths):
            raise ValueError(f"bad n_stats {meta['n_stats']!r}")
        n_params = arch.n_params()
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise NumericalError(f"{path}: unreadable checkpoint header ({exc!r})") from None
    expected = n_params + 2 * sum(widths)
    if values.size != expected:
        raise NumericalError(f"{path}: checkpoint payload has {values.size} values, "
                             f"its header implies {expected}")
    params, *stats = np.split(values, np.cumsum([n_params, *np.repeat(widths, 2)])[:-1])
    return SurrogateNet(arch, params, list(zip(stats[::2], stats[1::2])))
