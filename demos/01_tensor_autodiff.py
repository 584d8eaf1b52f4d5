#!/usr/bin/env python3
"""Tour of the tensor core: tape-based autodiff, the dilated convolution
and the encoder block built on it.

Run:  python demos/01_tensor_autodiff.py
"""

import numpy as np

from xmtc.tensor import (
    GradTape,
    Tensor,
    attend,
    conv_product,
    dilated_block,
    matmul,
    mean,
    mul,
    relu,
    same_padding,
    sigmoid,
)

print("=" * 60)
print("1. Tensors and the gradient tape")
print("=" * 60)

x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True, name="x")
w = Tensor(np.array([[0.5], [-0.25]]), requires_grad=True, name="w")

with GradTape() as tape:
    y = relu(matmul(x, w))
    loss = mean(y)
    tape.backward(loss)

print("y        =", y.data.ravel())
print("dloss/dx =\n", x.grad)
print("dloss/dw =", w.grad.ravel())

print()
print("=" * 60)
print("2. Dilated convolution arithmetic")
print("=" * 60)

# A kernel of size K with dilation r spans r*(K-1)+1 positions.  The
# convolution pads r*(K-1)/2 zeros on each end to keep the length, e.g.
# K=9, r=4 -> padding 16.
for k, r in [(9, 1), (9, 2), (9, 4)]:
    print(f"kernel {k}, dilation {r}: padding {same_padding(k, r)}")

signal = np.array([[1.0], [2.0], [3.0], [4.0]])
box = np.ones((3, 1, 1))  # sums three taps spaced `dilation` apart
out = conv_product(signal, box, dilation=2)
print("conv([1,2,3,4], ones(3), dilation=2, same padding) ->", out.ravel())

print()
print("=" * 60)
print("3. Numerically stable activations")
print("=" * 60)

# attend's softmax subtracts each row's largest score: one query scoring two
# positions at 1000 each weighs them 0.5 apiece, where exp(1000) overflows
alpha, _ = attend(Tensor([[1000.0]]), Tensor([[1.0], [1.0]]))
print("attention weights of scores [1000, 1000] =", alpha.ravel())
print("sigmoid(+-800)                           =", sigmoid(Tensor([-800.0, 800.0])).data)

print()
print("=" * 60)
print("4. Finite-difference gradient verification")
print("=" * 60)


def finite_difference_error(op, inputs, step=1e-5):
    """Largest gap between the tape's gradients of mean(op(*inputs) * probe)
    and central differences of it, relative to the largest gradient."""
    probe = Tensor(np.random.default_rng(1).standard_normal(op(*inputs).shape))

    def loss():
        return mean(mul(op(*inputs), probe))

    with GradTape() as tape:
        tape.backward(loss())
    worst = 0.0
    for t in inputs:
        flat, numeric = t.data.reshape(-1), np.empty(t.size)
        for i, orig in enumerate(flat.copy()):
            flat[i] = orig + step
            hi = float(loss().data)
            flat[i] = orig - step
            numeric[i] = (hi - float(loss().data)) / (2 * step)
            flat[i] = orig
        scale = max(np.abs(t.grad).max(), np.abs(numeric).max(), 1e-8)
        worst = max(worst, float(np.abs(t.grad.reshape(-1) - numeric).max() / scale))
        t.zero_grad()
    return worst


rng = np.random.default_rng(0)
a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
error = finite_difference_error(matmul, [a, b])
print(f"matmul: max relative error {error:.2e}")
assert error < 1e-6

# an encoder block: level 0 and the residual as one [K, d, 2d] filter, one
# more level at dilation 2, relu, then dropout under a fixed mask; one tape
# node, which keeps its chain inputs for backward when they are small and
# re-makes them when they are not
fused = Tensor(rng.standard_normal((3, 4, 8)) / 4, requires_grad=True)
level1 = Tensor(rng.standard_normal((3, 4, 4)) / 4, requires_grad=True)
seq = Tensor(rng.standard_normal((7, 4)), requires_grad=True)
keep = rng.random((7, 4)) >= 0.2
error = finite_difference_error(lambda s, f0, f1: dilated_block(s, f0, [f1], (1, 2), keep, 1.25),
                                [seq, fused, level1])
print(f"block: max relative error {error:.2e}")
assert error < 1e-4
