"""Masked attention and set attention blocks: exclusion semantics and
permutation equivariance.

Run:  python demos/02_masked_attention.py
"""

import numpy as np

from settraj.attention import masked_attention, set_attention_block
from settraj.model import ModelConfig, init_params
from settraj.tensor import DiffTensor

rng = np.random.default_rng(7)

# --- key exclusion ---------------------------------------------------------
q = DiffTensor(rng.normal(size=(2, 4)))
k = DiffTensor(rng.normal(size=(3, 4)))
v = DiffTensor(rng.normal(size=(3, 4)))

mask = np.array([[0, 0, 1],    # query 0 may not look at key 2
                 [1, 1, 1]])    # query 1 sees nothing at all
out, weights = masked_attention(q, k, v, mask)
print("attention weights:\n", np.round(weights.values, 4))
print("fully-masked query row ->", out.values[1], "(zeros, so a residual "
      "connection passes its input through)")

# excluded keys hold zero weight EXACTLY: changing their content is invisible
v2 = DiffTensor(np.where(np.arange(3)[:, None] == 2, 1e6, v.values))
out2, _ = masked_attention(q, k, v2, mask)
print("output bit-identical after perturbing the excluded key:",
      (out.values == out2.values).all())

# --- a full set attention block is permutation equivariant -----------------
cfg = ModelConfig(d=8, n_heads=2, sab_hidden=16, input_channels=3)
params = init_params(cfg, seed=1)
sab = params.encoder_c.sab_s

x = rng.normal(size=(5, 8))
out, _ = set_attention_block(DiffTensor(x), None, sab)
perm = rng.permutation(5)
out_p, _ = set_attention_block(DiffTensor(x[perm]), None, sab)
dev = np.abs(out_p.values - out.values[perm]).max()
print(f"\nSAB equivariance deviation under permutation: {dev:.2e}")
