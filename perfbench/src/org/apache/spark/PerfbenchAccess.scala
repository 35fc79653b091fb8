package org.apache.spark

/** Access to the listener bus's drain, which Spark keeps package-private:
  * per-span counters are read only after every posted event was handled.
  */
object PerfbenchAccess {
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
