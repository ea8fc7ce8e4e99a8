"""Reference CSV writer: the original per-value Trajectory.export_csv.

Kept unchanged as the oracle that the tests compare the one-pass writer
against byte for byte: one f"{v:.17g}" per value, one write per row.
"""


def export_csv(self, fh):
    """CSV columns t, x_1..x_n, h_1..h_n, H [, E]; 17 significant digits."""
    n = self.model.dim
    names = self.model.base_names
    cols = ["t"] + list(names) + [f"h{i + 1}" for i in range(n)] + ["H"]
    E = self.E_series()
    if E is not None:
        cols.append("E")
    fh.write(",".join(cols) + "\n")
    h = self.h_series()
    H = self.H_series()
    for i, t in enumerate(self.ts):
        row = [t] + list(self.ys[i, :n]) + list(h[i]) + [H[i]]
        if E is not None:
            row.append(E[i])
        fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
