#!/bin/sh
# Fusion guard for the interaction kernels' Go definition
# (internal/grav/kernel.go: ppGo, m2pQuadGo and the invSqrt they
# inline). The assembly kernels are held bit for bit to these loops, so
# the loops must mean the same bits on every platform. The Go compiler
# may fuse a plain x*y + z into one multiply-add, and does on arm64
# (never on amd64); an explicit math.FMA, or a product wrapped in
# float64(), says exactly what rounds where.
#
# Compiles the package for arm64 with -S and, per function, compares
# the fused instructions (FMADDD, FMSUBD, FNMADDD, FNMSUBD) with the
# math.FMA calls on the kernel.go lines the listing covers (its own and
# those of what it inlines). More fused instructions than calls is a
# fusion the source did not ask for: fails, naming the function.
set -eu
cd "$(dirname "$0")/.."

src=internal/grav/kernel.go
lst=$(mktemp)
trap 'rm -f "$lst"' EXIT
GOARCH=arm64 go build -gcflags=-S ./internal/grav 2>"$lst"

status=0
for fn in ppGo m2pQuadGo; do
	# "fused lines": the fused-instruction count, then every kernel.go
	# line number the function's listing carries.
	set -- $(awk -v fn="repro/internal/grav.$fn" '
		/^[^ \t]/ { in_fn = ($1 == fn && $2 == "STEXT") }
		in_fn && match($0, /kernel\.go:[0-9]+\)/) {
			l = substr($0, RSTART + 10, RLENGTH - 11)
			lines[l] = 1
			if ($0 ~ /\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\t/) fused++
		}
		END {
			printf "%d", fused
			for (l in lines) printf " %s", l
			print ""
		}' "$lst")
	fused=$1
	shift
	if [ $# -eq 0 ]; then
		echo "FAIL: no arm64 listing of $fn" >&2
		exit 1
	fi
	calls=0
	for l in "$@"; do
		n=$(sed -n "${l}p" "$src" | grep -o 'math\.FMA(' | wc -l)
		calls=$((calls + n))
	done
	echo "$fn: $fused fused instructions on arm64, $calls math.FMA calls"
	if [ "$fused" -gt "$calls" ]; then
		echo "FAIL: $fn fuses a multiply and an add the source did not: make it math.FMA or wrap the product in float64()" >&2
		status=1
	fi
done
exit $status
