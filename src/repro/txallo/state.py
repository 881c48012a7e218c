"""Incremental community state and throughput-gain math (paper §V-B).

Maintains per-community workload σ_q and capacity-free throughput Λ̂_q
under single-node moves, implementing Eqs. (6)-(8) and Lemma 1 (only the
source and target communities change). Used by both G-TxAllo and
A-TxAllo; tests cross-check every incremental update against the
from-scratch :func:`repro.metrics.graphlevel.community_state`.

Move deltas (v has self-loop w_vv, off-self strength s_v, and weight
w_vq to community q):

    join q   : σ'_q = σ_q + w_vv + η(s_v − w_vq) + (1−η)·w_vq
               Λ̂'_q = Λ̂_q + w_vv + s_v/2
    leave p  : σ'_p = σ_p − w_vv − η(s_v − w_vp) − (1−η)·w_vp
               Λ̂'_p = Λ̂_p − w_vv − s_v/2

(the leave deltas are the exact inverses of the join deltas, as they must
be for the state to stay consistent under arbitrary move sequences).
"""
from __future__ import annotations

import math

import numpy as np

from repro.graph.adjacency import Adjacency
from repro.metrics.formulas import clip_throughput
from repro.metrics.graphlevel import community_state


class TxAlloState:
    """Mutable allocation state over ``k`` communities.

    ``labels[v]`` is the community of node index ``v``; ``-1`` marks an
    unassigned node (contributes nothing; its incident edges count as
    cross for assigned neighbors, consistent with
    :func:`~repro.metrics.graphlevel.community_state`).
    """

    def __init__(
        self, adj: Adjacency, labels: np.ndarray, k: int, *, eta: float, lam: float
    ) -> None:
        self.adj = adj
        self.k = int(k)
        self.eta = float(eta)
        self.lam = float(lam)
        self.labels = np.asarray(labels, dtype=np.int64).copy()
        if self.labels.max(initial=-1) >= k:
            raise ValueError("labels must be < k (or -1 for unassigned)")
        self.sigma, self.lam_hat = community_state(adj, self.labels, k, eta=eta)
        self._s = adj.strength

    # -- read-side helpers -------------------------------------------------
    def throughput(self) -> float:
        """Current Λ = Σ_q Λ_q with the capacity clip (Eqs. 2-3)."""
        return float(clip_throughput(self.sigma, self.lam_hat, self.lam).sum())

    def neighbor_communities(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Candidate communities ℂ_v (Eq. 9) and their weights w_{v,q}.

        Returns the sorted community labels that v connects to (excluding
        v's own community and unassigned neighbors) and the corresponding
        weight. ``w_own`` is exposed via :meth:`own_weight`.
        """
        nbr, w = self.adj.neighbors(v)
        labs = self.labels[nbr]
        ok = labs >= 0
        labs, w = labs[ok], w[ok]
        uniq, inv = np.unique(labs, return_inverse=True)
        wsum = np.bincount(inv, weights=w)
        own = self.labels[v]
        keep = uniq != own
        return uniq[keep], wsum[keep]

    def own_weight(self, v: int) -> float:
        """w_{v, V_p \\ v}: weight from v to other members of its community."""
        nbr, w = self.adj.neighbors(v)
        return float(w[self.labels[nbr] == self.labels[v]].sum())

    # -- gain math ---------------------------------------------------------
    def _clip(self, sigma, lam_hat):
        return clip_throughput(sigma, lam_hat, self.lam)

    def join_gain(self, v: int, targets: np.ndarray, w_vq: np.ndarray) -> np.ndarray:
        """Δ_join Λ_q for joining each target community (Eq. 6), vectorized."""
        s_v = float(self._s[v])
        w_vv = float(self.adj.self_w[v])
        sig_q = self.sigma[targets]
        lh_q = self.lam_hat[targets]
        sig_q2 = sig_q + w_vv + self.eta * (s_v - w_vq) + (1.0 - self.eta) * w_vq
        lh_q2 = lh_q + w_vv + s_v / 2.0
        return self._clip(sig_q2, lh_q2) - self._clip(sig_q, lh_q)

    def leave_gain(self, v: int) -> float:
        """Δ_leave Λ_p for v leaving its current community (§V-B)."""
        p = int(self.labels[v])
        if p < 0:
            return 0.0
        s_v = float(self._s[v])
        w_vv = float(self.adj.self_w[v])
        w_vp = self.own_weight(v)
        sig_p2 = self.sigma[p] - w_vv - self.eta * (s_v - w_vp) - (1.0 - self.eta) * w_vp
        lh_p2 = self.lam_hat[p] - w_vv - s_v / 2.0
        return float(
            self._clip(sig_p2, lh_p2) - self._clip(self.sigma[p], self.lam_hat[p])
        )

    def move_gain(self, v: int, targets: np.ndarray, w_vq: np.ndarray) -> np.ndarray:
        """Δ_(v,p,q) Λ = Δ_leave Λ_p + Δ_join Λ_q (Eq. 8), per target."""
        return self.leave_gain(v) + self.join_gain(v, targets, w_vq)

    # -- fused sweep kernel -----------------------------------------------
    #
    # The numpy methods above and `move` below are the readable reference
    # (and the test oracle); G- and A-TxAllo run `sweep`, which fuses
    # candidate aggregation, Eq. (8) and the move into one pure-Python
    # loop over Python copies of the labels, σ and Λ̂ and the graph's
    # cached `Adjacency.lists`. For the low-degree nodes that dominate
    # transaction graphs, per-node numpy calls and numpy-scalar reads
    # cost far more than the work itself. Decisions and state are
    # bit-identical to the reference: weights are summed per label in
    # CSR order, labels are scanned in ascending order with a strict `>`
    # (ties go to the smallest shard label) and every expression keeps
    # the reference's operand order. Louvain's local-move sweep and the
    # METIS-like matching and refinement use the same pattern.

    def sweep(
        self, join_nodes: np.ndarray, opt_nodes: np.ndarray, eps: float, max_sweeps: int
    ) -> int:
        """Absorb ``join_nodes``, then run local-move sweeps over
        ``opt_nodes``; returns the number of sweeps executed.

        Join phase (Alg. 1 lines 2-9 / Alg. 2 lines 1-8): each join node,
        in the given order, moves to the candidate community ℂ_v (Eq. 9;
        all ``k`` when it has no assigned neighbour) with the largest join
        gain (Eq. 6). Sweeps (Alg. 1 lines 10-19): each node, in the given
        order, moves to its candidate with the largest total gain (Eq. 8)
        when that gain is positive; sweeping stops when a sweep's summed
        gain ΔΛ falls below ``eps`` or after ``max_sweeps`` sweeps.
        """
        ptr, ind, wl, self_l, s_l = self.adj.lists
        labels = self.labels.tolist()
        sigma = self.sigma.tolist()
        lam_hat = self.lam_hat.tolist()
        eta, lam, all_k = self.eta, self.lam, range(self.k)

        def best(v: int, join: bool) -> tuple[int, float, float, float] | None:
            """``(q, gain, w_vq, w_vp)`` of v's best target; None when ℂ_v
            is empty outside the join phase (Alg. 1 line 13's skip)."""
            p = labels[v]
            lo, hi = ptr[v], ptr[v + 1]
            acc: dict[int, float] = {}
            w_own = 0.0
            for u, w in zip(ind[lo:hi], wl[lo:hi]):
                lu = labels[u]
                if lu < 0:
                    continue
                if lu == p:
                    w_own += w
                else:
                    acc[lu] = acc.get(lu, 0.0) + w
            if not acc:
                if not join:
                    return None
                acc = dict.fromkeys(all_k, 0.0)
                acc.pop(p, None)
                if not acc:
                    return None
            s_v, w_vv = s_l[v], self_l[v]
            if join or p < 0:
                leave = 0.0
            else:
                sig_p, lh_p = sigma[p], lam_hat[p]
                sig_p2 = sig_p - w_vv - eta * (s_v - w_own) - (1.0 - eta) * w_own
                lh_p2 = lh_p - w_vv - s_v / 2.0
                leave = (lh_p2 if sig_p2 <= lam else lam / sig_p2 * lh_p2) - (
                    lh_p if sig_p <= lam else lam / sig_p * lh_p
                )
            best_q, best_gain, best_w = -1, -math.inf, 0.0
            for q in sorted(acc):
                w_vq = acc[q]
                sig_q, lh_q = sigma[q], lam_hat[q]
                sig_q2 = sig_q + w_vv + eta * (s_v - w_vq) + (1.0 - eta) * w_vq
                lh_q2 = lh_q + w_vv + s_v / 2.0
                gain = (
                    leave
                    + (lh_q2 if sig_q2 <= lam else lam / sig_q2 * lh_q2)
                    - (lh_q if sig_q <= lam else lam / sig_q * lh_q)
                )
                if gain > best_gain:
                    best_q, best_gain, best_w = q, gain, w_vq
            return best_q, best_gain, best_w, w_own

        def move(v: int, q: int, w_vq: float, w_vp: float) -> None:
            """:meth:`move` on the Python copies."""
            p = labels[v]
            if p == q:
                return
            s_v, w_vv = s_l[v], self_l[v]
            if p >= 0:
                sigma[p] -= w_vv + eta * (s_v - w_vp) + (1.0 - eta) * w_vp
                lam_hat[p] -= w_vv + s_v / 2.0
            sigma[q] += w_vv + eta * (s_v - w_vq) + (1.0 - eta) * w_vq
            lam_hat[q] += w_vv + s_v / 2.0
            labels[v] = q

        for v in np.asarray(join_nodes).tolist():
            r = best(v, True)
            if r is not None:
                move(v, r[0], r[2], r[3])

        opt = np.asarray(opt_nodes).tolist()
        sweeps = 0
        delta = math.inf
        while delta >= eps and sweeps < max_sweeps:
            delta = 0.0
            for v in opt:
                r = best(v, False)
                if r is not None and r[1] > 0.0:
                    move(v, r[0], r[2], r[3])
                    delta += r[1]
            sweeps += 1

        self.labels[:] = labels
        self.sigma[:] = sigma
        self.lam_hat[:] = lam_hat
        return sweeps

    # -- mutation ----------------------------------------------------------
    def move(self, v: int, q: int, w_vq: float | None = None) -> None:
        """Move v to community q, updating (σ, Λ̂) of source and target only
        (Lemma 1 guarantees other communities are unaffected). ``w_vq``,
        v's weight into q, is computed from the graph when not given."""
        p = int(self.labels[v])
        if p == q:
            return
        s_v = float(self._s[v])
        w_vv = float(self.adj.self_w[v])
        if p >= 0:
            w_vp = self.own_weight(v)
            self.sigma[p] -= w_vv + self.eta * (s_v - w_vp) + (1.0 - self.eta) * w_vp
            self.lam_hat[p] -= w_vv + s_v / 2.0
        if w_vq is None:
            nbr, w = self.adj.neighbors(v)
            w_vq = float(w[self.labels[nbr] == q].sum())
        self.sigma[q] += w_vv + self.eta * (s_v - w_vq) + (1.0 - self.eta) * w_vq
        self.lam_hat[q] += w_vv + s_v / 2.0
        self.labels[v] = q
