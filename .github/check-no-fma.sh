#!/usr/bin/env bash
# Fails when the arm64 build of internal/mat fuses a multiply with an add
# or subtract in the NNLS solver (nnls_ws.go) or its bordered four-lane
# solve (nnls_border.go). arm64 fuses `s -= a*b` into one FMSUB unless the
# product is written float64(a*b), and a fused line rounds once where the
# amd64 and 386 builds round twice, so the two solvers would no longer give
# the bits of each other, or of the amd64 golden file. The compiler's
# assembly listing attributes each instruction to its source line.
#
# Usage: bash .github/check-no-fma.sh
set -euo pipefail

files='nnls_ws.go|nnls_border.go'
asm=$(GOARCH=arm64 go build -gcflags=-S ./internal/mat 2>&1)
for f in ${files//|/ }; do
	if ! grep -q "/internal/mat/$f:" <<<"$asm"; then
		echo "no arm64 assembly listed for internal/mat/$f" >&2
		exit 1
	fi
done
fused=$(grep -E '\b(FMADD|FMSUB|FNMADD|FNMSUB)[SD]\b' <<<"$asm" | grep -E "/internal/mat/($files):" || true)
if [[ -n $fused ]]; then
	echo "fused multiply-add in the NNLS solver on arm64; write the product as float64(a*b):" >&2
	echo "$fused" >&2
	exit 1
fi
echo "no fused multiply-add in internal/mat/{${files//|/,}} on arm64"
