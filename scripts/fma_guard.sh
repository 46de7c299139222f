#!/bin/sh
# Fusion guard for the interaction kernels' Go definition
# (internal/grav/kernel.go: the float32 loops ppGo and m2pQuadGo, and
# the invSqrt32 and fma32 they call or inline). The assembly kernels
# are held bit for bit to these loops, so the loops must mean the same
# bits on every platform. The Go compiler may fuse a plain x*y + z into
# one multiply-add, and does on arm64 (never on amd64), for float32
# (FMADDS, FMSUBS, FNMADDS, FNMSUBS) as for float64 (FMADDD, ...). Go
# has no float32 FMA, so every fused float32 multiply-add in the loops
# is an explicit fma32 call, which executes none of those instructions;
# fma32 itself rounds its exact float64 product explicitly, and a
# product wrapped in float32() or float64() may not fuse.
#
# Compiles the package for arm64 with -S and, per function, counts the
# fused instructions of either width and the fma32 calls on the
# kernel.go lines the listing covers (its own and those of what it
# inlines). Any fused instruction is a fusion the source did not ask
# for: fails, naming the function. invSqrt32 and fma32 are checked
# where they have a listing of their own; where the compiler inlines
# them their lines are in their callers'.
set -eu
cd "$(dirname "$0")/.."

src=internal/grav/kernel.go
lst=$(mktemp)
trap 'rm -f "$lst"' EXIT
GOARCH=arm64 go build -gcflags=-S ./internal/grav 2>"$lst"

status=0
for fn in ppGo m2pQuadGo invSqrt32 fma32; do
	# "fused lines": the fused-instruction count, then every kernel.go
	# line number the function's listing carries.
	set -- $(awk -v fn="repro/internal/grav.$fn" '
		/^[^ \t]/ { in_fn = ($1 == fn && $2 == "STEXT") }
		in_fn && match($0, /kernel\.go:[0-9]+\)/) {
			l = substr($0, RSTART + 10, RLENGTH - 11)
			lines[l] = 1
			if ($0 ~ /\t(FMADD|FMSUB|FNMADD|FNMSUB)[SD]\t/) fused++
		}
		END {
			printf "%d", fused
			for (l in lines) printf " %s", l
			print ""
		}' "$lst")
	fused=$1
	shift
	if [ $# -eq 0 ]; then
		case $fn in
		ppGo | m2pQuadGo)
			echo "FAIL: no arm64 listing of $fn" >&2
			exit 1
			;;
		esac
		echo "$fn: inlined, checked in its callers"
		continue
	fi
	calls=0
	for l in "$@"; do
		n=$(sed -n "${l}p" "$src" | grep -v '^func ' | grep -o 'fma32(' | wc -l)
		calls=$((calls + n))
	done
	echo "$fn: $fused fused instructions on arm64, $calls fma32 calls"
	if [ "$fused" -gt 0 ]; then
		echo "FAIL: $fn fuses a multiply and an add the source did not: make it fma32 or wrap the product in float32()" >&2
		status=1
	fi
done
exit $status
