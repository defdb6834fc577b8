"""Meshes and the two operators built on them.

The domain (-1, 1)^2 is split into L x L square control volumes,
enumerated row by row with the x index fastest.  Every interior edge
carries the transmissibility m_sigma / d_KL, which on these uniform
grids is exactly 1, so the stiffness matrix is the plain grid-graph
Laplacian and the mass matrix is (2/L)^2 times the identity.

Run:  python demos/01_mesh_and_operators.py
"""

import numpy as np

from acfv import assemble_mass, assemble_stiffness, band_product, band_to_dense, build_uniform_mesh

for L in (1, 2, 5):
    mesh = build_uniform_mesh(L)
    print(f"L={L}: {mesh.n_cells} cells of area {mesh.cell_measures[0]:.4f}, "
          f"{mesh.n_edges} interior edges, h={mesh.h:.6f}")

mesh = build_uniform_mesh(2)
print("\ncell centers (x fastest):")
for n, (cx, cy) in enumerate(mesh.cell_centers):
    print(f"  cell {n}: ({cx:+.1f}, {cy:+.1f})")

print("\nmass diagonal:", assemble_mass(mesh))
# The stiffness is held as the upper band LAPACK factors: row j holds the
# entries (j - 2, j), (j - 1, j) and (j, j) of the 2 x 2 grid's matrix.
A = assemble_stiffness(mesh)
print("stiffness matrix:")
print(band_to_dense(A))

ones = np.ones(4)
print("\nrow sums A 1 =", band_product(A, ones), " (zero: no flux in or out of the domain)")
alternating = np.array([1.0, -1.0, -1.0, 1.0])
print("checkerboard mode is an eigenvector:", band_product(A, alternating), "= 4 * mode")
