package main

import (
	"fmt"
	"syscall"
)

// fsName names the filesystem holding dir, which sets what an fsync costs.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlay", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
