"""End-to-end GCN training (manual gradients) on the reproduction substrate.

The paper times inference-side graph convolution, but the systems it
compares (DGL & co.) are training frameworks — so the reproduction ships a
minimal trainable model: a two-layer GCN node classifier with hand-derived
gradients (the normalized-adjacency operator is linear, so its adjoint is
the transposed operator) and plain SGD.  Numerical gradient checks in the
test suite pin the derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..graph.csr import CSRGraph
from . import functional as F

__all__ = ["GCNClassifier", "cross_entropy", "normalized_adjacency"]


def normalized_adjacency(graph: CSRGraph) -> sp.csr_matrix:
    """Â = D̃^-1/2 (A + I) D̃^-1/2 as a sparse operator (float64): the
    ``gcn`` spec's sym-norm edge weights plus its scaled self term."""
    from ..mp import SelfTerm, SymNorm

    adj = graph.to_scipy(weights=SymNorm().weights(graph)).astype(np.float64)
    self_coeff = SelfTerm(kind="scaled").coeff(graph)
    return adj + sp.diags(self_coeff.astype(np.float64))


def cross_entropy(
    logits: np.ndarray, labels: np.ndarray, mask: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Mean masked cross-entropy and its gradient w.r.t. the logits."""
    n = logits.shape[0]
    if mask is None:
        mask = np.ones(n, dtype=bool)
    probs = F.softmax(logits.astype(np.float64), axis=1)
    idx = np.arange(n)
    m = int(mask.sum())
    if m == 0:
        raise ValueError("mask selects no vertices")
    loss = -np.log(np.maximum(probs[idx[mask], labels[mask]], 1e-12)).mean()
    grad = probs.copy()
    grad[idx, labels] -= 1.0
    grad[~mask] = 0.0
    return float(loss), grad / m


@dataclass
class GCNClassifier:
    """Two-layer GCN node classifier: softmax(Â ReLU(Â X W1) W2)."""

    w1: np.ndarray
    w2: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def init(
        cls, in_dim: int, hidden_dim: int, num_classes: int,
        rng: np.random.Generator,
    ) -> "GCNClassifier":
        return cls(
            w1=F.xavier_uniform((in_dim, hidden_dim), rng).astype(np.float64),
            w2=F.xavier_uniform((hidden_dim, num_classes), rng).astype(np.float64),
        )

    # ------------------------------------------------------------------
    def forward(self, graph: CSRGraph, X: np.ndarray) -> np.ndarray:
        A = normalized_adjacency(graph)
        X = X.astype(np.float64)
        AX = A @ X
        Z1 = AX @ self.w1
        H1 = np.maximum(Z1, 0.0)
        AH1 = A @ H1
        logits = AH1 @ self.w2
        self._cache = {"A": A, "AX": AX, "Z1": Z1, "H1": H1, "AH1": AH1}
        return logits

    def gradients(self, grad_logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Backprop the cached forward; returns (dW1, dW2)."""
        c = self._cache
        if not c:
            raise RuntimeError("call forward() before gradients()")
        dW2 = c["AH1"].T @ grad_logits
        dAH1 = grad_logits @ self.w2.T
        dH1 = c["A"].T @ dAH1  # adjoint of the aggregation operator
        dZ1 = dH1 * (c["Z1"] > 0)
        dW1 = c["AX"].T @ dZ1
        return dW1, dW2

    # ------------------------------------------------------------------
    def train(
        self,
        graph: CSRGraph,
        X: np.ndarray,
        labels: np.ndarray,
        *,
        train_mask: np.ndarray | None = None,
        epochs: int = 100,
        lr: float = 0.1,
        weight_decay: float = 0.0,
        verbose: bool = False,
    ) -> list[float]:
        """Full-batch SGD; returns the loss trajectory."""
        losses = []
        for epoch in range(epochs):
            logits = self.forward(graph, X)
            loss, grad = cross_entropy(logits, labels, train_mask)
            dW1, dW2 = self.gradients(grad)
            if weight_decay:
                dW1 = dW1 + weight_decay * self.w1
                dW2 = dW2 + weight_decay * self.w2
            self.w1 -= lr * dW1
            self.w2 -= lr * dW2
            losses.append(loss)
            if verbose and epoch % 10 == 0:
                print(f"  epoch {epoch:3d}: loss {loss:.4f}")
        return losses

    def predict(self, graph: CSRGraph, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(graph, X), axis=1)

    def accuracy(
        self,
        graph: CSRGraph,
        X: np.ndarray,
        labels: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> float:
        pred = self.predict(graph, X)
        if mask is None:
            mask = np.ones(len(labels), dtype=bool)
        return float((pred[mask] == labels[mask]).mean())
