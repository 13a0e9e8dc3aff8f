package repro.core

/** Insert-only set of `Long` keys by open addressing: linear probing over a
  * power-of-two table kept at most half full. Slot value 0 marks an empty
  * slot, so key 0 is tracked by a flag. No key is boxed.
  */
private[core] final class LongSet {
  private var table = new Array[Long](16)
  private var used = 0 // non-zero keys in `table`
  private var hasZero = false

  /** Number of distinct keys added. */
  def size: Int = if (hasZero) used + 1 else used

  def add(key: Long): Unit =
    if (key == 0L) hasZero = true
    else if (insert(table, key)) {
      used += 1
      if (2 * used > table.length) {
        val old = table
        table = new Array[Long](old.length * 2)
        var i = 0
        while (i < old.length) { if (old(i) != 0L) insert(table, old(i)); i += 1 }
      }
    }

  /** Puts non-zero `key` into `t`; false if it was already there. */
  private def insert(t: Array[Long], key: Long): Boolean = {
    val mask = t.length - 1
    val h = key * 0x9E3779B97F4A7C15L // Fibonacci hashing: fold the mixed high bits down
    var i = (h ^ (h >>> 32)).toInt & mask
    while (t(i) != 0L) {
      if (t(i) == key) return false
      i = (i + 1) & mask
    }
    t(i) = key
    true
  }
}
