#!/bin/sh
# Fail when a tracked file brings back a name listed in
# ci/retired-names.txt (its header gives the format). git grep sees
# tracked files only: `git add -N` new files before running this.
#
#   sh ci/retired-names.sh
cd "$(git rev-parse --show-toplevel)" || exit 2
list=ci/retired-names.txt
[ -r "$list" ] || { echo "$list: missing"; exit 2; }
set -f # a pathspec such as *.rs goes to git grep unexpanded
tab=$(printf '\t')
status=0
while IFS=$tab read -r pattern match path change reason; do
  case $pattern in '' | '#'*) continue ;; esac
  case $match in
    word) flags=-nwE ;;
    substring) flags=-nE ;;
    *) echo "$list: bad match field '$match' for $pattern"; exit 2 ;;
  esac
  if git grep $flags -e "$pattern" -- "$path"; then
    echo "FAIL: a retired name is back ($change): $reason"
    status=1
  fi
done < "$list"
exit $status
