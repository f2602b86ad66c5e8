"""Gauss-Chebyshev quadrature nodes and weights.

First kind:  integral of f(x) / (pi*sqrt(1-x^2)) over [-1, 1]  ~  mean of f
at the nodes cos((2i-1)pi/2N); exact for polynomials of degree < 2N.

Second kind: integral of f(x) * sqrt(1-x^2) over [-1, 1]  ~  sum of
w_i f(x_i) with x_i = cos(i pi/(N+1)), w_i = pi/(N+1) * sin^2(i pi/(N+1)).
"""

from __future__ import annotations

import math


def cheb1_nodes(n: int) -> list[float]:
    return [math.cos((2 * i - 1) * math.pi / (2 * n)) for i in range(1, n + 1)]


def cheb2_nodes_weights(n: int) -> tuple[list[float], list[float]]:
    nodes, weights = [], []
    for i in range(1, n + 1):
        th = i * math.pi / (n + 1)
        nodes.append(math.cos(th))
        weights.append(math.pi / (n + 1) * math.sin(th) ** 2)
    return nodes, weights

